"""Coordinate affine planes AG(2,p) over a prime field.

Point (x, y) gets id x*p + y.  Lines come in a fixed order: y = m*x + b
for ascending (m, b), then the verticals x = c.  The deterministic layout
keeps ids stable across runs.
"""

from __future__ import annotations

from typing import Optional

from .errors import NotPrime, OrderTooLarge, SameLine
from .incidence import IncidencePlane, verify_axioms

DEFAULT_MAX_ORDER = 13


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


def build_prime_plane(p: int, max_order: int = DEFAULT_MAX_ORDER) -> IncidencePlane:
    """Construct AG(2,p) and verify it, so the result is ready for use."""
    if p > max_order:  # first: trial division of a large p would not end
        raise OrderTooLarge(f"order {p} exceeds the bound {max_order}")
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


def intersect(plane: IncidencePlane, l: int, m: int) -> Optional[int]:
    """Common point of two distinct lines, or None when they are parallel.

    One lookup in plane.meet_table().
    """
    meet = plane.meet_table()
    if l == m:
        raise SameLine(f"intersect requires distinct lines, got {l} twice")
    return meet[l][m]
