"""Benchmark inputs: coordinate affine planes and the Hall plane of order 9.

Every plane here is a translation plane on the vector space F^2, F = GF(q).
The vector (x, y) is point x*q + y, the layout ``affineplane build`` uses,
and the lines are the cosets v + S of the components S of a spread.  The
Desarguesian spread {y = m*x} u {x = 0} gives AG(2,q).  The Hall plane of
order 9 takes the Desarguesian spread of GF(9)^2 and replaces the regulus
{y = m*x : m in GF(3)} u {x = 0} by its opposite regulus.

Documents are relabelled by a seeded permutation of the points and a
seeded order of the lines before the program sees them.
"""

from __future__ import annotations

import random

# q -> (p, k, t^2 as (c0, c1) meaning t^2 = c0 + c1*t in GF(p)[t])
FIELDS = {
    2: (2, 1, None),
    3: (3, 1, None),
    4: (2, 2, (1, 1)),  # t^2 + t + 1 is irreducible over GF(2)
    7: (7, 1, None),
    9: (3, 2, (2, 0)),  # t^2 + 1 is irreducible over GF(3)
}


class Field:
    """GF(q) with elements coded 0..q-1 as c0 + c1*p for c0 + c1*t."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.k, t_squared = FIELDS[q]
        p = self.p
        if self.k == 1:
            self.add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            c0, c1 = t_squared

            def add(a: int, b: int) -> int:
                return (a % p + b % p) % p + ((a // p + b // p) % p) * p

            def mul(a: int, b: int) -> int:
                a0, a1, b0, b1 = a % p, a // p, b % p, b // p
                top = a1 * b1  # coefficient of t^2
                low = a0 * b0 + top * c0
                mid = a0 * b1 + a1 * b0 + top * c1
                return low % p + (mid % p) * p

            self.add = [[add(a, b) for b in range(q)] for a in range(q)]
            self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]
        for a in range(1, q):
            if 1 not in self.mul[a]:
                raise ValueError(f"GF({q}) tables are not a field: {a} has no inverse")


class VectorPlane:
    """A translation plane on F^2, given by its spread.

    ``kernel`` is the order of the plane's kernel: the scalars that act
    on every spread component.  |Dil| = q^2 * (kernel - 1).
    """

    def __init__(self, name: str, field: Field, spread: list[frozenset[int]], kernel: int):
        q = field.q
        n = q * q
        if len(spread) != q + 1 or any(len(s) != q for s in spread):
            raise ValueError(f"{name}: a spread of F^2 needs {q + 1} components of {q} vectors")
        covered = [0] * n
        for s in spread:
            for v in s:
                covered[v] += 1
        if covered[0] != q + 1 or any(c != 1 for c in covered[1:]):
            raise ValueError(f"{name}: spread components must meet only in 0")
        self.name = name
        self.field = field
        self.q = q
        self.num_points = n
        self.kernel = kernel
        self.vadd = [[self._vadd(u, v) for v in range(n)] for u in range(n)]
        lines = {frozenset(self.vadd[v][s] for s in comp) for comp in spread for v in range(n)}
        self.lines = sorted(sorted(line) for line in lines)

    def _vadd(self, u: int, v: int) -> int:
        q, add = self.q, self.field.add
        return add[u // q][v // q] * q + add[u % q][v % q]


def desarguesian_spread(field: Field) -> list[frozenset[int]]:
    q, mul = field.q, field.mul
    spread = [frozenset(x * q + mul[m][x] for x in range(q)) for m in range(q)]
    spread.append(frozenset(range(q)))  # x = 0
    return spread


def hall_spread(field: Field) -> list[frozenset[int]]:
    """Desarguesian spread with the GF(p)-regulus replaced by its opposite.

    The opposite regulus is {(a*l, b*l) : a, b in GF(p)} for l in
    GF(q)* / GF(p)*: each such subspace meets every component of the
    regulus in a line through 0 and covers the same vectors.
    """
    q, mul = field.q, field.mul
    sub = range(field.p)  # GF(p) is the elements c0 + 0*t
    kept = [frozenset(x * q + mul[m][x] for x in range(q)) for m in range(q) if m not in sub]
    opposite = {
        frozenset(mul[a][lam] * q + mul[b][lam] for a in sub for b in sub)
        for lam in range(1, q)
    }
    return kept + sorted(opposite, key=sorted)


def coordinate_plane(q: int) -> VectorPlane:
    field = Field(q)
    return VectorPlane(f"AG(2,{q})", field, desarguesian_spread(field), kernel=q)


def hall_plane() -> VectorPlane:
    field = Field(9)
    return VectorPlane("Hall(9)", field, hall_spread(field), kernel=3)


class Relabelling:
    """A seeded permutation of the points and order of the lines.

    label[v] is the document id of vector v; the lines of a document are
    relabelled, sorted, then shuffled, so two equal sets of point sets
    give byte-identical documents.
    """

    def __init__(self, seed: int, name: str, num_points: int):
        rng = random.Random(f"{seed}/{name}")
        self.label = list(range(num_points))
        rng.shuffle(self.label)
        self.line_order_seed = rng.random()

    def document(self, num_points: int, lines: list[list[int]]) -> dict:
        relabelled = sorted(sorted(self.label[p] for p in line) for line in lines)
        random.Random(self.line_order_seed).shuffle(relabelled)
        return {"points": num_points, "lines": relabelled}


def point_sets(document: dict) -> set[frozenset[int]]:
    return {frozenset(line) for line in document["lines"]}
