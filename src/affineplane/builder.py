"""Coordinate affine planes AG(2,p) over a prime field.

Point (x, y) gets id x*p + y.  Lines come in a fixed order: y = m*x + b
for ascending (m, b), then the verticals x = c.  The deterministic layout
keeps ids stable across runs.
"""

from __future__ import annotations

from .errors import NotPrime
from .incidence import IncidencePlane, verify_axioms


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def point_id(x: int, y: int, p: int) -> int:
    return x * p + y


def build_prime_plane(p: int) -> IncidencePlane:
    """Construct AG(2,p) and verify it, so the result is ready for use."""
    if not is_prime(p):
        raise NotPrime(f"plane order must be prime, got {p}")

    lines: list[frozenset[int]] = []
    for m in range(p):
        for b in range(p):
            lines.append(frozenset(point_id(x, (m * x + b) % p, p) for x in range(p)))
    for c in range(p):
        lines.append(frozenset(point_id(c, y, p) for y in range(p)))

    plane = IncidencePlane(p * p, lines)
    verify_axioms(plane)
    return plane
