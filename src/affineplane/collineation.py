"""Point bijections of a plane: collineations, dilations, translations.

A map is stored as a tuple ``image`` with image[p] = image of point p.
Classification follows the chain general -> collineation (lines go to
lines) -> dilation (every joining line goes to a parallel one) ->
translation (no fixed point, or the identity).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .errors import SizeMismatch
from .incidence import IncidencePlane, parallel_partition


class ClassifiedMap(NamedTuple):
    """A point bijection together with its strongest classification."""

    image: tuple[int, ...]
    kind: str  # general | collineation | dilation | translation
    fixed_points: frozenset[int]
    direction: Optional[int] = None

    @property
    def is_identity(self) -> bool:
        return all(i == p for p, i in enumerate(self.image))


def _check_size(plane: IncidencePlane, image) -> None:
    if len(image) != plane.num_points:
        raise SizeMismatch(
            f"map covers {len(image)} points, plane has {plane.num_points}"
        )


def fixed_points(image) -> frozenset[int]:
    return frozenset(p for p, q in enumerate(image) if p == q)


def is_collineation(plane: IncidencePlane, image) -> bool:
    """Every line's image point set is a line."""
    return classify(plane, image).kind != "general"


def is_dilation(plane: IncidencePlane, image) -> bool:
    """A collineation sending every joining line to a parallel one."""
    return classify(plane, image).kind in ("dilation", "translation")


def is_translation(plane: IncidencePlane, image) -> bool:
    """A dilation with no fixed point, or the identity."""
    return classify(plane, image).kind == "translation"


def classify(plane: IncidencePlane, image) -> ClassifiedMap:
    """Classify a point map as strongly as its properties allow.

    The one validation of a map: the dilation test of _as_dilation, then,
    for a map that fails it, one pass looking up each line's image point
    set: a collineation if every one is a line, else "general".  A map
    with f(p) = f(q), p != q, fails at join(p, q), whose image has fewer
    points than any line (all lines of an affine plane have q points).
    """
    _check_size(plane, image)
    plane.require_verified()
    image = tuple(image)
    f = _as_dilation(plane, image)
    if f is not None:
        return f
    line_index = plane.line_index
    if all(frozenset([image[p] for p in pts]) in line_index for pts in plane.lines):
        return ClassifiedMap(image, "collineation", fixed_points(image))
    return ClassifiedMap(image, "general", fixed_points(image))


def _as_dilation(plane: IncidencePlane, image: tuple[int, ...]) -> Optional[ClassifiedMap]:
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


def _classified_dilation(plane: IncidencePlane, image: tuple[int, ...]) -> ClassifiedMap:
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
    line = plane.join_table()[0][image[0]]
    return ClassifiedMap(image, "translation", fixed, parallel_partition(plane).class_of[line])


def dilation_cosets(plane: IncidencePlane) -> tuple[list[ClassifiedMap], list[ClassifiedMap]]:
    """(Dil_0, representatives): the dilations as cosets of the stabiliser.

    Dil_0 is the stabiliser of A = 0; representatives holds one dilation
    f per point f(A) != A that some dilation reaches.  A dilation is
    pinned down by the images of two distinct points A and B = 1, which
    must span a line parallel to AB.  A candidate image pair is extended
    pointwise by intersecting parallels, and the result is validated and
    classified by the dilation test of classify alone (_as_dilation), so
    the construction cannot over-report.  A completed candidate that is
    not a bijection is dropped: the steps fill every point but A and B
    with a point, and the test requires a bijection.  Dil_0 is every
    passing candidate (A, B').  The other points A' are walked in order:
    one that a composite of translations found so far has reached is
    skipped (Fact 4); for any other, the candidates (A', B') are tried
    until one passes, the translation candidate first.  A translation
    that passes joins the generators, and the translations found are
    closed under composition with them, each composite filling its
    image of A.  On AG(2,p^k), Tr is Z_p^(2k) and each tested point lies
    outside the subgroup found before it, so q - 1 + 2k candidates are
    tested in all.

    One representative per image of A suffices (Artin, Geometric
    Algebra, ch. II): composites and inverses of dilations are
    dilations; if g(A) = f(A), then f^-1 g fixes A, so g lies in f Dil_0,
    and the f s, s in Dil_0, are distinct, as f is injective; and the
    candidates (A', B') are complete for A' by two-point determination,
    so if none passes, no dilation sends A to A'.  Facts 1 to 3 follow;
    Fact 4 rests on Fact 1.

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
    pass on Dil_0 and the representatives.  Every dilation is f s, with f
    the identity or a representative and s in Dil_0, and
    (f s)^-1 t (f s) = s^-1 (f^-1 t f) s.  So if conjugation by f and by
    s each send every translation to a translation (of its direction), so
    does conjugation by f s; the converse holds as the generating set lies
    in Dil.

    4. A point A' reached by a composite gets, untested, the
    representative its test would return, image and kind alike.  A
    composite h of dilations is a dilation, so _classified_dilation
    classifies it as _as_dilation would.  If h is a translation, the coset
    of A' = h(A) holds it, so by Fact 1 h is the translation candidate
    of A', which the test tries first and which passes.  A composite
    with a fixed point is never used.  The identity sends A to A, whose
    coset is Dil_0.  Any other is no translation, and Fact 1 names no
    member of a coset but its translation as the test's result, so its
    point goes to the test.  (Tr being a group, the identity is the only
    composite of translations with a fixed point.)
    """
    plane.require_verified()
    n = plane.num_points
    join = plane.join_table()
    par, meet = plane.parallel_table(), plane.meet_table()
    class_of = parallel_partition(plane).class_of
    a, b = 0, 1
    line_ab = join[a][b]
    on_ab = plane.lines[line_ab]
    off_ab = [c for c in range(n) if c not in on_ab]
    c0 = off_ab[0]
    # One step per point c, in order: f(c) is where the parallel to AC
    # through f(A) meets the parallel to (base)C through f(base), with base
    # B off AB and the first point off AB on it.  Equal parallels meet in
    # None (meet[l][l]), which rejects the candidate.
    steps = [
        (c, base, par[class_of[join[a][c]]], par[class_of[join[base][c]]])
        for c, base in [(c, b) for c in off_ab]
        + [(c, c0) for c in on_ab if c not in (a, b)]
    ]

    def parallel(p: int, q: int, through: int) -> int:
        """The line through `through` parallel to join(p, q)."""
        return par[class_of[join[p][q]]][through]

    def dilations_from(a2: int, b2s) -> Iterator[ClassifiedMap]:
        """The candidates (a2, b2), b2 in b2s, that pass, lazily."""
        for b2 in b2s:
            if b2 == a2:
                continue
            image = [-1] * n
            image[a], image[b] = a2, b2
            for c, base, row_a, row_base in steps:
                c2 = meet[row_a[a2]][row_base[image[base]]]
                if c2 is None:
                    break
                image[c] = c2
            else:
                f = _as_dilation(plane, tuple(image))
                if f is not None:
                    yield f

    stabiliser = list(dilations_from(a, on_ab))
    found: list = [None] * n  # found[a2]: the representative for a2, tested or composed
    found[a] = stabiliser  # A's coset is Dil_0: no composite fills it
    translations, generators = [], []  # Tr found so far; (g(A), compose with g)
    for a2 in range(1, n):
        if found[a2] is not None:  # a composite translation (Fact 4)
            continue
        m = parallel(a, b, a2)  # f(B) lies on the parallel to AB through f(A)
        if m == line_ab:
            t1 = meet[parallel(c0, b, meet[parallel(a, c0, a2)][parallel(a, b, c0)])][line_ab]
        else:
            t1 = meet[m][parallel(a, a2, b)]
        candidates = [t1, *(b2 for b2 in plane.lines[m] if b2 != t1)]
        f = found[a2] = next(dilations_from(a2, candidates), None)
        if f is None or f.kind != "translation":  # None: no dilation sends A to a2
            continue
        translations.append(f)
        generators.append((a2, itemgetter(*f.image)))
        for t in translations:  # grows as it is read: a BFS over the composites t.g
            for g_a, compose in generators:
                if found[t.image[g_a]] is None:
                    h = _classified_dilation(plane, compose(t.image))
                    if h.kind == "translation":
                        found[h.image[a]] = h
                        translations.append(h)
    return stabiliser, [f for f in found[1:] if f is not None]


def compose_cosets(
    plane: IncidencePlane, stabiliser: list[ClassifiedMap], representatives: list[ClassifiedMap]
) -> list[ClassifiedMap]:
    """Every dilation f s, f the identity or a representative and s in
    Dil_0, untested and sorted by image (see dilation_cosets)."""
    compose = [itemgetter(*s.image) for s in stabiliser]
    found = list(stabiliser)
    for f in representatives:
        found += [_classified_dilation(plane, g(f.image)) for g in compose]
    found.sort(key=lambda f: f.image)
    return found


def enumerate_dilations(plane: IncidencePlane) -> list[ClassifiedMap]:
    """All dilations, sorted by image: the cosets of Dil_0, composed."""
    return compose_cosets(plane, *dilation_cosets(plane))
