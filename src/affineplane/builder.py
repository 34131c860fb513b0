"""Coordinate affine planes AG(2,p) over a prime field.

Point (x, y) gets id x*p + y.  Lines come in a fixed order: y = m*x + b
for ascending (m, b), then the verticals x = c.  The deterministic layout
keeps ids stable across runs.

prime_plane_document lists the lines, and is all that `build` runs:
this module imports the incidence layer only where build_prime_plane
makes a plane of them.
"""

from .errors import NotPrime


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def point_id(x, y, p):
    return x * p + y


def prime_plane_document(p):
    """The incidence document of AG(2,p), unverified: {"points": p^2,
    "lines": [...]}, each line a list of point ids in ascending order,
    the lines in the layout's order.  It is build_prime_plane(p).to_document():
    x*p dominates every id, so a line y = m*x + b listed by ascending x,
    and a vertical by ascending y, is sorted."""
    if not is_prime(p):
        raise NotPrime(f"plane order must be prime, got {p}")
    lines = [[point_id(x, (m * x + b) % p, p) for x in range(p)]
             for m in range(p) for b in range(p)]
    lines += [[point_id(c, y, p) for y in range(p)] for c in range(p)]
    return {"points": p * p, "lines": lines}


def build_prime_plane(p):
    """Construct AG(2,p) and verify it, so the result is ready for use."""
    from .incidence import IncidencePlane, verify_axioms

    document = prime_plane_document(p)
    plane = IncidencePlane(document["points"], [frozenset(line) for line in document["lines"]])
    verify_axioms(plane)
    return plane
