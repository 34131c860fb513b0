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

from collections import namedtuple
from operator import itemgetter

from . import _forward
from .errors import MissingIdentity, NotClosed, NotTranslation
from .incidence import AxiomCheck

__getattr__ = _forward(__name__, {
    "conjugation": "check_composition_direction check_conjugation check_conjugation_direction"
                   " check_normal_in_dilations"})


class CheckResult(namedtuple("CheckResult", "name passed witness", defaults=(None,))):
    """A named verdict, with a witness tuple on failure."""

    __slots__ = ()

    def to_dict(self):
        return {"name": self.name, **AxiomCheck(self.passed, self.witness).to_dict()}


def compose_images(f, g):
    """(f o g)(p) = f(g(p)): g applies first.  Maps are image tuples."""
    return tuple([f[q] for q in g])


class TranslationGroup:
    """Translations with Cayley table, inverses and direction map.

    elements is a tuple of ClassifiedMap, elements[0] the identity;
    cayley[i][j] indexes elements[i] o elements[j], each row a tuple;
    inverse[i] indexes the inverse of elements[i]; direction_of[i] is its
    parallel class, None for the identity.
    """

    __slots__ = ("elements", "cayley", "inverse", "direction_of", "_by_key", "_chain", "_abelian")

    def __init__(self, elements, cayley, inverse, direction_of):
        self.elements = elements
        self.cayley = cayley
        self.inverse = inverse
        self.direction_of = direction_of
        self._by_key = {f.image[:2]: i for i, f in enumerate(elements)}  # see build_group
        self._chain = None  # generator_chain(self), once computed
        self._abelian = None  # check_abelian(self), once scanned

    @property
    def order(self):
        return len(self.elements)

    def index_of(self, image):
        """The index of the listed element with this image, else None."""
        i = self._by_key.get(image[:2])
        return i if i is not None and self.elements[i].image == image else None


def _gather(indices):
    """itemgetter(*indices), which gives a tuple for a single index too."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def build_group(plane, translations):
    """The TranslationGroup of a list of ClassifiedMap, failing loudly if
    composition escapes the list.

    Precondition: every element is a translation as classify says; an
    element of another kind raises NotTranslation.  Two translations
    with the same image of 0 are equal (t^-1.u fixes 0, and a translation
    that fixes a point is the identity), so a list that repeats one
    raises NotClosed naming both; sorting by image puts them side by
    side.  So at0[p] indexes the one listed element with image of 0 p,
    or is n (no element) when none has it.

    Row i of the Cayley table, f = elements[i], is read by C-level
    gathers: f.g_j(0) for every column j, then at0 at those points, the
    candidate k_j.  The composite f.g_j is a dilation, since it maps each
    line onto a line of the same class, and two dilations that agree at
    points 0 and 1 are equal (a dilation is fixed by the images of two
    points: enumerate_dilations' construction with A, B = 0, 1).  So
    f.g_j is the listed element k_j iff elements[k_j](1) = f.g_j(1), and
    when that compare fails at j, f.g_j is not listed: the only listed
    element it could be is k_j.  (The image of 0 alone would name f.g_j
    if it were known to be a translation, which is what the scan checks.)
    A row that fails is read again column by column for the first j that
    misses, the entry the NotClosed names.

    When the list has as many elements as the plane has points, as Tr
    has on a translation plane, where it acts regularly on the points,
    every point is the image of 0 of one element, and sorting by image
    sorts by image of 0: elements[j](0) = j and at0 is the identity.
    Then k_j = f(g_j(0)) = f(j), so row i is f's image itself, the same
    tuple, with no gather.  The scan above still reads it.

    Proven, not scanned: each composite is a dilation, two points fix a
    dilation, composition of maps is associative, and every row holds the
    identity once the scan passes: the powers of a listed f are listed,
    and f, a permutation of finitely many points, has finite order k, so
    f^(k-1), the identity when k = 1, is its inverse.  Scanned: the
    identity is listed, and every one of the |Tr|^2 composites a.b is
    looked up among the listed elements; a miss raises.  dilation_cosets
    composes most of Tr from a few tested generators, but this scan does
    not rely on how the list was found, so translations_form_group stays
    an exhaustive check.
    """
    identity = tuple(range(plane.num_points))
    for f in translations:
        if f.kind != "translation":
            raise NotTranslation(f"build_group requires translations, got kind {f.kind!r}")
    ordered = sorted(translations, key=lambda f: f.image)
    if not ordered or ordered[0].image != identity:
        raise MissingIdentity("translation list does not contain the identity")
    n = len(ordered)
    at0 = [n] * plane.num_points
    for i, f in enumerate(ordered):
        if at0[f.image[0]] != n:
            raise NotClosed(f"elements {i - 1} and {i} are the same translation")
        at0[f.image[0]] = i
    regular = n == plane.num_points  # then at0 is the identity, and row i is f's image
    zeros = None if regular else _gather([f.image[0] for f in ordered])  # f -> (f.g_j(0))_j
    ones = _gather([f.image[1] for f in ordered])  # f -> (f.g_j(1))_j
    listed_ones = (*(f.image[1] for f in ordered), -1)  # the image of 1 of each k, and of n

    cayley = []
    for i, f in enumerate(ordered):
        row = f.image if regular else _gather(zeros(f.image))(at0)
        wanted = ones(f.image)
        if _gather(row)(listed_ones) != wanted:
            j = next(j for j, k in enumerate(row) if listed_ones[k] != wanted[j])
            raise NotClosed(f"composite of elements {i} and {j} is not a listed translation")
        cayley.append(row)

    return TranslationGroup(
        elements=tuple(ordered),
        cayley=tuple(cayley),
        inverse=tuple([row.index(0) for row in cayley]),
        direction_of=tuple(f.direction for f in ordered),
    )


def check_abelian(g):
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


def _scan_abelian(g):
    """Each row against its column, read from the transposed table.  At
    the first row i that differs, the witness is (i, j), j the first
    index where they differ.  Then j > i: every earlier row equals its
    column, so cayley[i][j] = cayley[j][i] for j < i, and j = i is the
    diagonal.  So (i, j) is the first pair i < j, in scan order, that
    does not commute."""
    for i, (row, column) in enumerate(zip(g.cayley, zip(*g.cayley))):
        if row != column:
            j = next(j for j, (a, b) in enumerate(zip(row, column)) if a != b)
            return CheckResult("abelian", False, (i, j))
    return CheckResult("abelian", True)


def generator_chain(g):
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
        coset = [None] * g.order  # coset[z] = (c, h), z = c.h, on the chain
        coset[0] = (0, 0)
        members = [0]
        gens = []
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


def generators(g):
    """Greedy generating set, a list of element indices: lowest-index
    element outside the span, repeated."""
    return list(generator_chain(g)[0])
