"""The translation set as an explicit finite group.

The group is materialized as a Cayley table over a canonical element
order (identity first, then lexicographic by image array).  The check
here is commutativity, an exhaustive scan that groups, endo and
verify-all read.  The other group-theoretic claims about translations,
normality inside the dilations and the behaviour of directions under
conjugation and composition, are the conjugation pass of
affineplane.conjugation, which only groups and verify-all load; its
names are read here too, on first access.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import _forward
from .collineation import ClassifiedMap
from .errors import MissingIdentity, NotClosed, NotTranslation
from .incidence import AxiomCheck, IncidencePlane

__getattr__ = _forward(__name__, dict.fromkeys((
    "_inverse", "check_composition_direction", "check_conjugation", "check_conjugation_direction",
    "check_normal_in_dilations"), "conjugation"))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: Optional[tuple] = None

    def to_dict(self) -> dict:
        return {"name": self.name, **AxiomCheck(self.passed, self.witness).to_dict()}


def compose_images(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f o g)(p) = f(g(p)): g applies first."""
    return tuple([f[q] for q in g])


class TranslationGroup:
    """Translations with Cayley table, inverses and direction map.

    elements[0] is the identity; cayley[i][j] indexes elements[i] o elements[j].
    """

    __slots__ = ("elements", "cayley", "inverse", "direction_of", "_by_key", "_chain", "_abelian")

    def __init__(self, elements: tuple[ClassifiedMap, ...], cayley: tuple[tuple[int, ...], ...],
                 inverse: tuple[int, ...], direction_of: tuple[Optional[int], ...]):
        self.elements = elements
        self.cayley = cayley
        self.inverse = inverse
        self.direction_of = direction_of
        self._by_key = {f.image[:2]: i for i, f in enumerate(elements)}  # see build_group
        self._chain: Optional[tuple] = None  # generator_chain(self), once computed
        self._abelian: Optional[CheckResult] = None  # check_abelian(self), once scanned

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, image: tuple[int, ...]) -> Optional[int]:
        """The index of the listed element with this image, else None."""
        i = self._by_key.get(image[:2])
        return i if i is not None and self.elements[i].image == image else None


def build_group(
    plane: IncidencePlane, translations: list[ClassifiedMap]
) -> TranslationGroup:
    """Assemble the group, failing loudly if composition escapes the list.

    Precondition: every element is a translation as classify says; an
    element of another kind raises NotTranslation.  Each Cayley entry is
    read from the key (f(0), f(1)) of the composite f = a.b, which is a
    dilation, since it maps each line onto a line of the same class.
    Two dilations that agree at points 0 and 1 are equal (a dilation is
    fixed by the images of two points: enumerate_dilations' construction
    with A, B = 0, 1), so the key names the listed element equal to the
    composite, or none when the composite is not listed.  For the same
    reason two elements with one key are equal, and a list that repeats
    one raises NotClosed naming both; sorting by image puts them side by
    side.

    Proven, not scanned: each composite is a dilation, a key names at
    most one dilation, and composition of maps is associative.  Scanned:
    the identity is listed, every one of the |Tr|^2 composites a.b is
    looked up among the listed elements, and every row holds the
    identity; a miss raises.  dilation_cosets composes most of Tr from a
    few tested generators, but this scan does not rely on how the list
    was found, so translations_form_group stays an exhaustive check.
    """
    identity = tuple(range(plane.num_points))
    for f in translations:
        if f.kind != "translation":
            raise NotTranslation(f"build_group requires translations, got kind {f.kind!r}")
    ordered = sorted(translations, key=lambda f: f.image)
    if not ordered or ordered[0].image != identity:
        raise MissingIdentity("translation list does not contain the identity")
    keys = [f.image[:2] for f in ordered]
    for i in range(1, len(keys)):
        if keys[i] == keys[i - 1]:
            raise NotClosed(f"elements {i - 1} and {i} are the same translation")
    by_key = {key: i for i, key in enumerate(keys)}

    cayley = []
    for i, f in enumerate(ordered):
        row = [by_key.get((f.image[a], f.image[b])) for a, b in keys]
        if None in row:
            raise NotClosed(
                f"composite of elements {i} and {row.index(None)} is not a listed translation"
            )
        cayley.append(tuple(row))

    inverse = [row.index(0) if 0 in row else -1 for row in cayley]
    if -1 in inverse:
        raise NotClosed(f"element {inverse.index(-1)} has no inverse in the list")

    return TranslationGroup(
        elements=tuple(ordered),
        cayley=tuple(cayley),
        inverse=tuple(inverse),
        direction_of=tuple(f.direction for f in ordered),
    )


def check_abelian(g: TranslationGroup) -> CheckResult:
    """Whether every two elements commute; fails with the first pair
    (i, j), i < j, in scan order that does not.

    The verdict also settles both End closure theorems of verify-all.
    Composites: a(b(s.x)) = a(b(s).b(x)) = a(b(s)).a(b(x)) for any
    endomorphisms a, b of any group, so every composite is one.  Sums,
    (a+b)(x) = a(x).b(x): every sum is an endomorphism iff the group is
    abelian.  If it is, (a+b)(s.x) = a(s).a(x).b(s).b(x)
    = a(s).b(s).a(x).b(x) = (a+b)(s).(a+b)(x), and (a+b)(0) = 0.  If it
    is not, the identity map 1 is an endomorphism, but 1+1 is x -> x.x,
    and (s.x).(s.x) = s.s.x.x only when x.s = s.x, so 1+1 fails at a pair
    that does not commute.  End lists every endomorphism (claim 3 of
    endo.enumerate_endomorphisms), so "every sum is listed in End" means
    the same as "every sum is an endomorphism".

    Scanned once per group and kept on it: verify-all reads the verdict,
    and so does endo.count_endomorphisms.
    """
    if g._abelian is None:
        g._abelian = _scan_abelian(g)
    return g._abelian


def _scan_abelian(g: TranslationGroup) -> CheckResult:
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.cayley[i][j] != g.cayley[j][i]:
                return CheckResult("abelian", False, (i, j))
    return CheckResult("abelian", True)


def generator_chain(
    g: TranslationGroup,
) -> tuple[tuple[int, ...], tuple[tuple[list, list, list], ...]]:
    """(gens, levels): greedy generators and the chain they saturate.

    gens[k] is the lowest-index element outside H_k = <gens[:k]>, and
    H_0 = {0} < H_1 < ... < H_r = G.  levels[k] = (tree, relators, fills)
    extend H_k to H_{k+1} by one BFS over the left cosets c.H_k in
    H_{k+1}, from c = 0.  Each edge (j, c), c a representative and
    j <= k, has gens[j].c = c'.h for one representative c' and one h in
    H_k.  If that coset is new, c' = gens[j].c is a tree edge (c', j, c),
    listed in BFS order, so c comes before c'.  Every other edge is a
    relator (j, c, c', h), but (j < k, 0), where c' = 0 and h = gens[j]
    in any table, is dropped; so (k, 0) is the first tree edge.  fills
    lists (z, c, h), z = c.h, for every other new element.  Since
    s.(c.H_k) = (s.c).H_k, the reached cosets are closed under left
    multiplication by gens[:k+1], so they cover H_{k+1} (positive words
    suffice: every element has finite order), with no normality needed.

    Computed once per group and kept on it.
    """
    if g._chain is None:
        cayley = g.cayley
        coset: list = [None] * g.order  # coset[z] = (c, h), z = c.h, on the chain
        coset[0] = (0, 0)
        members = [0]
        gens: list[int] = []
        levels = []
        while len(members) < g.order:
            k = len(gens)
            gens.append(coset.index(None))
            for h in members:
                coset[h] = (0, h)
            tree, relators, reps = [], [], [0]
            for c in reps:  # grows while it is walked: a BFS over the cosets
                for j in range(k if c == 0 else 0, k + 1):
                    y = cayley[gens[j]][c]
                    if coset[y] is None:
                        reps.append(y)
                        tree.append((y, j, c))
                        for h in members:
                            coset[cayley[y][h]] = (y, h)
                    else:
                        relators.append((j, c, *coset[y]))
            fills = [(cayley[c][h], c, h) for c in reps[1:] for h in members[1:]]
            members = [cayley[c][h] for c in reps for h in members]
            levels.append((tree, relators, fills))
        g._chain = (tuple(gens), tuple(levels))
    return g._chain


def generators(g: TranslationGroup) -> list[int]:
    """Greedy generating set: lowest-index element outside the span, repeated."""
    return list(generator_chain(g)[0])
