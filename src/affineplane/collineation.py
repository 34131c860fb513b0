"""Point bijections of a plane: collineations, dilations, translations.

A map is stored as a tuple ``image`` with image[p] = image of point p.
Classification follows the chain general -> collineation (lines go to
lines) -> dilation (every joining line goes to a parallel one) ->
translation (no fixed point, or the identity).

The commands need only the dilations, as cosets of the stabiliser of a
point (dilation_cosets).  classify, its predicates and the composed list
of Dil live in affineplane.definitions, which no benchmark command
loads; they are read here too, on first access.
"""

from collections import namedtuple
from operator import itemgetter

from . import _forward
from .incidence import parallel_partition

__getattr__ = _forward(__name__, {
    "definitions": "classify compose_cosets enumerate_dilations is_collineation is_dilation"
                   " is_translation"})


class ClassifiedMap(namedtuple("ClassifiedMap", "image kind fixed_points direction",
                               defaults=(None,))):
    """A point bijection together with its strongest classification.

    image is a tuple of points; kind is general, collineation, dilation or
    translation; fixed_points a frozenset; direction a class id or None.
    """

    __slots__ = ()

    @property
    def is_identity(self):
        return all(i == p for p, i in enumerate(self.image))


def fixed_points(image):
    """The frozenset of the points p with image[p] = p."""
    return frozenset(p for p, q in enumerate(image) if p == q)


def _as_dilation(plane, image):
    """The image classified as a dilation or translation, None if it is neither.

    The test: f is a bijection onto the points and, for each class c but
    the last, par[c].f is constant on each line of c (two itemgetter
    calls), that is f maps each line of c into a line of c.  The last
    class, c*, follows.  Take two points a, b of a line l of c*.  For any
    other class c they lie on distinct lines of c, which f maps into
    distinct lines of c: one line of q points cannot hold the 2q images
    of two disjoint ones, f being injective.  So join(f(a), f(b)) is in
    no class but c*, and f maps l into the line of c* through f(a).  So
    f maps each line of every class into a line of that class.  Such an
    f is a dilation: it maps each line onto a line of its class, as
    lines have q points, so join(p, q) onto join(f(p), f(q)) in the
    class of join(p, q).  A dilation passes: it is injective (see
    classify), so a bijection.
    """
    n = plane.num_points
    if set(image) != set(range(n)):
        return None
    apply = itemgetter(*image)
    for row, first in zip(plane.parallel_table(), plane.first_point_getters()[:-1]):
        moved = apply(row)
        if first(moved) != moved:
            return None
    return _classified_dilation(plane, image)


def _classified_dilation(plane, image):
    """A known dilation classified: a translation if it fixes no point or all.

    The direction of a fixed-point-free dilation is the class of its
    trace join(0, f(0)).  A trace join(p, f(p)) is invariant, since its
    image is parallel to it through f(p), so two traces of different
    classes would meet in a fixed point.  So all traces share one class;
    the tests check that point by point.
    """
    fixed = fixed_points(image)
    if len(fixed) == len(image):
        return ClassifiedMap(image, "translation", fixed)
    if fixed:
        return ClassifiedMap(image, "dilation", fixed)
    line = plane.join_row(0)[image[0]]
    return ClassifiedMap(image, "translation", fixed, parallel_partition(plane).class_of[line])


def dilation_cosets(plane):
    """(Dil_0, representatives): the dilations as cosets of the stabiliser,
    two lists of ClassifiedMap.

    Dil_0 is the stabiliser of A = 0; representatives holds one dilation
    f per point f(A) != A that some dilation reaches.  A dilation is
    pinned down by the images of two distinct points A and B = 1, which
    must span a line parallel to AB.  A candidate image pair is extended
    pointwise by intersecting parallels, and the result is validated and
    classified by the dilation test of classify alone (_as_dilation), so
    the construction cannot over-report.  A completed candidate that is
    not a bijection is dropped: the steps fill every point but A and B
    with a point, and the test requires a bijection.

    Each list is one walk (walk), Dil_0 first.  Dil_0 is walked by the
    image B' of B, over the points of AB in the line's order, from the
    identity, the candidate (A, B), which is not tested: a point B' that
    a composite of the generators found so far has reached is skipped
    (Fact 5); for any other the candidate (A, B') is tested.  The other
    points A' are walked in order: one that a composite of translations
    found so far has reached is skipped (Fact 4); for any other, the
    candidates (A', B') are tried until one passes, the translation
    candidate first.  In each walk a map that passes joins the generators
    (in the second, a translation only), and the maps found are closed
    under composition with them, each composite filling its image of B,
    or of A.  On AG(2,p^k), Tr is Z_p^(2k) and Dil_0 is the cyclic group
    GF(p^k)*, and each tested point lies outside the subgroup found
    before it, so 2k candidates are tested for Tr, and for Dil_0 at most
    as many as q - 1 has prime factors, counted with multiplicity (2 for
    q = 47, 3 for q = 9 and 31), where testing every candidate took q - 1.

    One representative per image of A suffices (Artin, Geometric
    Algebra, ch. II): composites and inverses of dilations are
    dilations; if g(A) = f(A), then f^-1 g fixes A, so g lies in f Dil_0,
    and the f s, s in Dil_0, are distinct, as f is injective; and the
    candidates (A', B') are complete for A' by two-point determination,
    so if none passes, no dilation sends A to A'.  Facts 1 to 3 follow;
    Fact 4 rests on Fact 1, and Fact 5 on two-point determination.

    1. A coset holds at most one translation, and only the translation
    candidate can be it; so Tr is the set of translations among Dil_0
    and the representatives.  Let t be a translation, t(A) = A' != A.
    Its traces join(p, t(p)) all lie in the class of join(A, A')
    (_classified_dilation), and t maps each line onto its parallel
    through the image point.  If A' is off AB, t(B) lies on the parallel
    to AB through A' and on the trace of B, the parallel to AA' through
    B; the two are of distinct classes, so they meet in one point.  If A'
    is on AB, take c0, the first point off AB: t(c0) lies on the parallel
    to Ac0 through A' and on the parallel to AB through c0, one point;
    t(B) lies on the parallel to c0B through t(c0) and on AB, the trace
    of B, again one point.  So t(B) is the point the search builds
    first, and t is that candidate.  When the candidate passes, it is the
    representative, and classify calls it a translation iff the coset
    holds one; when it fails, the coset holds none.  In Dil_0 the one
    translation is the identity, the only translation with a fixed point.

    2. |Dil| = |Dil_0| (1 + len(representatives)): the cosets of distinct
    images of A are disjoint, each has |Dil_0| elements, and the coset of
    A itself is Dil_0.

    3. normal_in_dilations and conjugation_direction pass on Dil iff they
    pass on a set S that generates Dil, such as generators of Dil_0, the
    representatives that are no translations and generators of Tr.  Let K be the dilations
    d whose conjugation sends every translation to a translation (of its
    direction).  K is closed under composition: (d e)^-1 t (d e) =
    e^-1 (d^-1 t d) e.  A nonempty subset of a finite group closed under
    composition is a subgroup, as d^-1 is a power of d.  So S in K gives
    K = Dil, and the converse holds as S lies in Dil.  That S generates
    Dil: every dilation is f s, with f the identity or a representative
    and s in Dil_0, a composite of the generators of Dil_0, and a
    representative that is a translation is a composite of the
    generators of Tr.

    4. A point A' reached by a composite gets, untested, the
    representative its test would return: image, kind, fixed points and
    direction alike.  The walk forms a composite h = t.g (g first) of two
    translations only when A' = h(A) is not yet reached, and A is reached
    from the start (its coset is Dil_0), so h(A) != A.  Such an h is a
    translation.  It is a dilation, as a composite of dilations.  If it
    fixed a point p, then g(p) = t^-1(p).  Now t^-1 is a translation: a
    dilation that fixes a point only if t does.  Two translations that
    agree at one point are equal, by Fact 1's construction from that
    point in place of A (or both fix it, and both are the identity).  So
    g = t^-1 and h is the identity, which moves no point; but h moves A.
    So h has no fixed point, and _classified_dilation, which is what
    _as_dilation returns for a dilation, calls it a translation whose
    direction is the class of its trace join(A, h(A)): the walk records
    exactly that, with no scan for fixed points.  The coset of A' holds
    h, so by Fact 1 h is the translation candidate of A', which the test
    tries first and which passes.

    5. A dilation that fixes A is fixed by its image of B, and a point B'
    reached by a composite gets, untested, the map its test would return.
    The walk forms a composite h = s.g (g first) of two maps of Dil_0
    only when B' = h(B) is not yet reached.  h is a dilation that fixes
    A, so it maps AB onto the parallel to AB through A, AB itself, and
    B' lies on AB.  Two dilations that agree at A and B are equal (as
    above), and the candidate (A, B') is built from those two images
    alone, so it is h, which passes, and _as_dilation returns
    _classified_dilation of it: what the walk records.  So the walk finds
    every passing candidate (A, B'), as testing each did; a candidate
    that fails is no dilation, so no composite reaches its point, and it
    is tested, as the six of Hall(9) that fail are.  The identity, seeded
    at B, is _classified_dilation of its image too.
    """
    plane.require_verified()
    n = plane.num_points
    par, masks = plane.parallel_table(), plane.line_masks()
    class_of = parallel_partition(plane).class_of
    a, b = 0, 1
    line_ab = plane.join_row(a)[b]
    on_ab = plane.lines[line_ab]
    off_ab = [c for c in range(n) if c not in on_ab]
    c0 = off_ab[0]
    join = {p: plane.join_row(p) for p in (a, b, c0)}  # every join read starts at A, B or c0
    # One step per point c, in order: f(c) is where the parallel to AC
    # through f(A) meets the parallel to (base)C through f(base), with base
    # B off AB and the first point off AB on it, so f(base) is set before.
    # base is off AC, so AC and (base)C are two lines through C, of two
    # classes, and so are their parallels, which meet in exactly one point.
    steps = [
        (c, base, par[class_of[join[a][c]]], par[class_of[join[base][c]]])
        for c, base in [(c, b) for c in off_ab]
        + [(c, c0) for c in on_ab if c not in (a, b)]
    ]

    def parallel(p, q, through):
        """The line through `through` parallel to join(p, q)."""
        return par[class_of[join[p][q]]][through]

    def meet(l, m):
        """The common point of two lines of distinct classes: the one bit
        of the AND of their masks."""
        return (masks[l] & masks[m]).bit_length() - 1

    def dilation(a2, b2s):
        """The first candidate (a2, b2), b2 in b2s, that passes, or None."""
        for b2 in b2s:
            if b2 != a2:
                image = [-1] * n
                image[a], image[b] = a2, b2
                for c, base, row_a, row_base in steps:
                    image[c] = meet(row_a[a2], row_base[image[base]])
                if (f := _as_dilation(plane, tuple(image))) is not None:
                    return f
        return None

    def candidates(a2):
        """(a2, the points b2 of the candidates (a2, b2)), the translation candidate first."""
        m = parallel(a, b, a2)  # f(B) lies on the parallel to AB through f(A)
        if m == line_ab:
            t1 = meet(parallel(c0, b, meet(parallel(a, c0, a2), parallel(a, b, c0))), line_ab)
        else:
            t1 = meet(m, parallel(a, a2, b))
        return a2, [t1, *(b2 for b2 in plane.lines[m] if b2 != t1)]

    def walk(x, seed, points, pairs, kind, composite):
        """The maps found[p], p in points, that are set, in that order:
        found[p] is the map with image p of x, seed at x itself.  Each p
        that no composite has reached gets dilation(*pairs(p)), the first
        candidate that passes, or None.  A map of this kind that the test
        returns joins the generators, and the maps of this kind found so
        far are closed under composition with them, a BFS over the
        composites t.g (g first): each fills found at its image h_x of x,
        if no map has, with composite(image, h_x)."""
        found = [None] * n
        found[x] = seed
        members, gens = [], []
        for p in points:
            if found[p] is None:
                f = found[p] = dilation(*pairs(p))
                if f is not None and f.kind == kind:
                    members.append(f)
                    gens.append((f.image[x], itemgetter(*f.image)))
                    for t in members:  # grows as it is read
                        for g_x, compose in gens:
                            if found[h_x := t.image[g_x]] is None:
                                found[h_x] = h = composite(compose(t.image), h_x)
                                members.append(h)
        return [f for f in map(found.__getitem__, points) if f is not None]

    # Dil_0 by images of B, the identity untested (Fact 5); then A's coset is
    # Dil_0, so no composite fills it, and the representatives (Fact 4)
    stabiliser = walk(b, _classified_dilation(plane, tuple(range(n))), on_ab,
                      lambda b2: (a, [b2]), "dilation",
                      lambda image, _: _classified_dilation(plane, image))
    return stabiliser, walk(a, stabiliser, range(1, n), candidates, "translation",
                            lambda image, h_a: ClassifiedMap(
                                image, "translation", frozenset(), class_of[join[a][h_a]]))
