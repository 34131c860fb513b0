"""The translation set as an explicit finite group.

The group is materialized as a Cayley table over a canonical element
order (identity first, then lexicographic by image array).  The checks
here are the group-theoretic claims about translations: commutativity,
normality inside the dilations, and the behaviour of directions under
conjugation and composition.  All of them are exhaustive scans.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .collineation import ClassifiedMap
from .errors import MissingIdentity, NotClosed, NotTranslation
from .incidence import AxiomCheck, IncidencePlane


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

    __slots__ = ("elements", "cayley", "inverse", "direction_of", "_by_key", "_chain")

    def __init__(self, elements: tuple[ClassifiedMap, ...], cayley: tuple[tuple[int, ...], ...],
                 inverse: tuple[int, ...], direction_of: tuple[Optional[int], ...]):
        self.elements = elements
        self.cayley = cayley
        self.inverse = inverse
        self.direction_of = direction_of
        self._by_key = {f.image[:2]: i for i, f in enumerate(elements)}  # see build_group
        self._chain: Optional[tuple] = None  # generator_chain(self), once computed

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
    composite, or none when the composite is not listed.
    """
    identity = tuple(range(plane.num_points))
    for f in translations:
        if f.kind != "translation":
            raise NotTranslation(f"build_group requires translations, got kind {f.kind!r}")
    ordered = sorted(translations, key=lambda f: f.image)
    if not ordered or ordered[0].image != identity:
        raise MissingIdentity("translation list does not contain the identity")
    keys = [f.image[:2] for f in ordered]
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
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.cayley[i][j] != g.cayley[j][i]:
                return CheckResult("abelian", False, (i, j))
    return CheckResult("abelian", True)


def check_conjugation(
    g: TranslationGroup, dilations: list[ClassifiedMap]
) -> tuple[CheckResult, CheckResult]:
    """Conjugate every translation by every dilation, once, for two checks.

    Returns (normal_in_dilations, conjugation_direction).  The first
    passes iff every conjugate d^-1.t.d (d applied first) is a
    translation, and fails with the first witness (di, si) in scan order
    whose conjugate is not.  The second passes iff moreover every
    non-identity translation and its conjugate share a direction, and
    fails with the first (di, si), si >= 1, that breaks either condition.

    Per dilation d, only the generators are conjugated: by their key
    (c(0), c(1)) as in build_group when d's kind is "dilation" or
    "translation", since composites and inverses of dilations are
    dilations, else point by point.  If each conjugate is a translation,
    phi(x) = d^-1.x.d is computed for every x by one Cayley lookup per
    tree edge or fill of the generator chain, phi(gens[j].c) :=
    phi(gens[j]).phi(c) or phi(c.h) := phi(c).phi(h), and every direction
    is compared.  This is the conjugate itself: conjugation by a
    permutation is a homomorphism of the symmetric group, the Cayley
    table records composition of permutations within the translation
    set, which build_group checked to be closed, and the tree edges and
    fills set every nonzero element once, after the elements they read,
    starting from phi(0) = 0.  So the conjugate of every x is a
    translation whose index the lookups give, and normality holds for d.
    If some generator's conjugate is not a translation, the translations
    are conjugated point by point, as the definition reads, with d^-1
    built once, which yields the same witnesses.  Cost per dilation: rank
    key lookups plus one lookup per element, instead of |G| point-wise
    conjugates for each check.

    The CLI passes Dil_0, then the representatives of dilation_cosets.
    Both checks pass for every dilation d of any affine plane (Artin,
    Geometric Algebra, ch. II): d^-1.t.d is a dilation, and if it fixes p,
    t fixes d(p), so both are the identity; and d^-1 maps the trace
    join(p, t(p)) onto a parallel, the trace of d^-1.t.d at d^-1(p).  So
    only a library call with a non-dilation gets a witness, and its di
    indexes the list passed.
    """
    normal: Optional[CheckResult] = None
    direction: Optional[CheckResult] = None
    gens, levels = generator_chain(g)
    gen_images = [g.elements[s].image for s in gens]

    def conjugate(inv, s, d) -> Optional[int]:
        return g.index_of(compose_images(inv, compose_images(s, d)))

    for di, delta in enumerate(dilations):
        d, inv = delta.image, None
        if delta.kind in ("dilation", "translation"):
            images = [g._by_key.get((d.index(s[d[0]]), d.index(s[d[1]]))) for s in gen_images]
        else:
            inv = _inverse(d)
            images = [conjugate(inv, s, d) for s in gen_images]
        if None not in images:
            if direction is None:
                phi = [0] * g.order
                for tree, _, fills in levels:
                    for y, j, x in tree:
                        phi[y] = g.cayley[images[j]][phi[x]]
                    for z, c, h in fills:
                        phi[z] = g.cayley[phi[c]][phi[h]]
                for si in range(1, g.order):
                    if g.direction_of[phi[si]] != g.direction_of[si]:
                        direction = CheckResult("conjugation_direction", False, (di, si))
                        break
        else:
            if inv is None:
                inv = _inverse(d)
            for si in range(1, g.order):
                ci = conjugate(inv, g.elements[si].image, d)
                if ci is None:
                    normal = CheckResult("normal_in_dilations", False, (di, si))
                    direction = direction or CheckResult(
                        "conjugation_direction", False, (di, si)
                    )
                    break
                if direction is None and ci != 0 and g.direction_of[ci] != g.direction_of[si]:
                    direction = CheckResult("conjugation_direction", False, (di, si))
        if normal is not None:
            break
    return (
        normal or CheckResult("normal_in_dilations", True),
        direction or CheckResult("conjugation_direction", True),
    )


def _inverse(image: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(image)
    for p, q in enumerate(image):
        inv[q] = p
    return tuple(inv)


def check_normal_in_dilations(
    g: TranslationGroup, dilations: list[ClassifiedMap]
) -> CheckResult:
    """Every conjugate of a translation by a dilation is again a translation."""
    return check_conjugation(g, dilations)[0]


def check_conjugation_direction(
    g: TranslationGroup, dilations: list[ClassifiedMap]
) -> CheckResult:
    """Conjugation by a dilation preserves the direction of a translation."""
    return check_conjugation(g, dilations)[1]


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
