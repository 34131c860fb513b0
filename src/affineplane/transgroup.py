"""The translation set as an explicit finite group.

The group is materialized as a Cayley table over a canonical element
order (identity first, then lexicographic by image array).  The checks
here are the group-theoretic claims about translations: commutativity,
normality inside the dilations, and the behaviour of directions under
conjugation and composition.  All of them are exhaustive scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .collineation import ClassifiedMap
from .errors import MissingIdentity, NotClosed
from .incidence import IncidencePlane


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: Optional[tuple] = None

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


def compose_images(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f o g)(p) = f(g(p)): g applies first."""
    return tuple(f[q] for q in g)


@dataclass
class TranslationGroup:
    """Translations with Cayley table, inverses and direction map.

    elements[0] is the identity; cayley[i][j] indexes elements[i] o elements[j].
    """

    plane: IncidencePlane
    elements: tuple[ClassifiedMap, ...]
    cayley: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    direction_of: tuple[Optional[int], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, image: tuple[int, ...]) -> Optional[int]:
        return self._lookup.get(image)

    def __post_init__(self):
        self._lookup = {f.image: i for i, f in enumerate(self.elements)}
        self._generators: Optional[tuple[int, ...]] = None

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.cayley[x][i]
            k += 1
        return k


def build_group(
    plane: IncidencePlane, translations: list[ClassifiedMap]
) -> TranslationGroup:
    """Assemble the group, failing loudly if composition escapes the list."""
    identity = tuple(range(plane.num_points))
    ordered = sorted(translations, key=lambda f: f.image)
    if not ordered or ordered[0].image != identity:
        raise MissingIdentity("translation list does not contain the identity")
    lookup = {f.image: i for i, f in enumerate(ordered)}
    n = len(ordered)

    cayley = []
    for i in range(n):
        row = []
        for j in range(n):
            composite = compose_images(ordered[i].image, ordered[j].image)
            k = lookup.get(composite)
            if k is None:
                raise NotClosed(
                    f"composite of elements {i} and {j} is not a listed translation"
                )
            row.append(k)
        cayley.append(tuple(row))

    inverse = [-1] * n
    for i in range(n):
        for j in range(n):
            if cayley[i][j] == 0:
                inverse[i] = j
                break
        if inverse[i] == -1:
            raise NotClosed(f"element {i} has no inverse in the list")

    return TranslationGroup(
        plane=plane,
        elements=tuple(ordered),
        cayley=tuple(cayley),
        inverse=tuple(inverse),
        direction_of=tuple(f.direction for f in ordered),
    )


def check_abelian(g: TranslationGroup) -> CheckResult:
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.cayley[i][j] != g.cayley[j][i]:
                return CheckResult("abelian", False, (i, j))
    return CheckResult("abelian", True)


def check_normal_in_dilations(
    g: TranslationGroup, dilations: list[ClassifiedMap]
) -> CheckResult:
    """Every conjugate of a translation by a dilation is again a translation."""
    for di, delta in enumerate(dilations):
        inv = [0] * len(delta.image)
        for p, q in enumerate(delta.image):
            inv[q] = p
        inv_t = tuple(inv)
        for si in range(g.order):
            conj = compose_images(inv_t, compose_images(g.elements[si].image, delta.image))
            if g.index_of(conj) is None:
                return CheckResult("normal_in_dilations", False, (di, si))
    return CheckResult("normal_in_dilations", True)


def check_conjugation_direction(
    g: TranslationGroup, dilations: list[ClassifiedMap]
) -> CheckResult:
    """Conjugation by a dilation preserves the direction of a translation."""
    for di, delta in enumerate(dilations):
        inv = [0] * len(delta.image)
        for p, q in enumerate(delta.image):
            inv[q] = p
        inv_t = tuple(inv)
        for si in range(1, g.order):
            conj = compose_images(inv_t, compose_images(g.elements[si].image, delta.image))
            ci = g.index_of(conj)
            if ci is None:
                return CheckResult("conjugation_direction", False, (di, si))
            if ci != 0 and g.direction_of[ci] != g.direction_of[si]:
                return CheckResult("conjugation_direction", False, (di, si))
    return CheckResult("conjugation_direction", True)


def check_composition_direction(g: TranslationGroup) -> CheckResult:
    """Composing two translations of one direction stays in that direction."""
    for i in range(1, g.order):
        for j in range(1, g.order):
            if g.direction_of[i] != g.direction_of[j]:
                continue
            k = g.cayley[j][i]
            if k != 0 and g.direction_of[k] != g.direction_of[i]:
                return CheckResult("composition_direction", False, (i, j))
    return CheckResult("composition_direction", True)


def subgroup_closure(g: TranslationGroup, seeds: list[int]) -> set[int]:
    """Saturate a set of element indices under the Cayley table."""
    closed = {0} | set(seeds)
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for s in seeds:
            y = g.cayley[s][x]
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return closed


def generators(g: TranslationGroup) -> list[int]:
    """Greedy generating set: lowest-index element outside the span, repeated.

    Computed once per group and kept on it.
    """
    if g._generators is None:
        gens: list[int] = []
        span = {0}
        for i in range(1, g.order):
            if i in span:
                continue
            gens.append(i)
            span = subgroup_closure(g, gens)
            if len(span) == g.order:
                break
        g._generators = tuple(gens)
    return list(g._generators)
