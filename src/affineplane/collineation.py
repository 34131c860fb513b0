"""Point bijections of a plane: collineations, dilations, translations.

A map is stored as a tuple ``image`` with image[p] = image of point p.
Classification follows the chain general -> collineation (lines go to
lines) -> dilation (every joining line goes to a parallel one) ->
translation (no fixed point, or the identity).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .builder import DEFAULT_MAX_ORDER
from .errors import OrderTooLarge, SizeMismatch
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


def enumerate_dilations(
    plane: IncidencePlane, max_order: int = DEFAULT_MAX_ORDER
) -> list[ClassifiedMap]:
    """All dilations, by two-point determination over the cosets of Dil_0.

    A dilation is pinned down by the images of two distinct points A = 0,
    B = 1, which must span a line parallel to AB.  A candidate image pair
    is extended pointwise by intersecting parallels, and the result is
    validated and classified by the dilation test of classify alone
    (_as_dilation), so the construction cannot over-report.  A completed
    candidate that is not a bijection is dropped: the steps fill every
    point but A and B with a point, and the test requires a bijection.

    One passing candidate per image of A suffices (Artin, Geometric
    Algebra, ch. II).  Let Dil_0 be the stabiliser of A:
    - composites and inverses of dilations are dilations;
    - if g(A) = f(A), then f^-1 g fixes A, so g lies in f Dil_0, and the
      f s, s in Dil_0, are distinct, as f is injective;
    - the candidates (A', B') are complete for A' by two-point
      determination: if none passes, no dilation sends A to A'.
    So the search tests the candidates (A, B') for Dil_0, then, for each
    other point A', the candidates (A', B') until one f passes, and lists
    f s for every s in Dil_0 untested.  Cosets of distinct A' are
    disjoint, so each dilation is listed once.
    """
    plane.require_verified()
    order = len(plane.lines[0])
    if order > max_order:
        raise OrderTooLarge(
            f"dilation enumeration bounded to order {max_order}, plane has {order}"
        )
    n = plane.num_points
    join = plane.join_table()
    par, meet = plane.parallel_table(), plane.meet_table()
    partition = parallel_partition(plane)
    class_of = partition.class_of
    a, b = 0, 1
    line_ab = join[a][b]
    on_ab = plane.lines[line_ab]
    off_ab = [c for c in range(n) if c not in on_ab]
    # One step per point c, in order: f(c) is where the parallel to AC
    # through f(A) meets the parallel to (base)C through f(base), with base
    # B off AB and the first point off AB on it.  Equal parallels meet in
    # None (meet[l][l]), which rejects the candidate.
    steps = [
        (c, base, par[class_of[join[a][c]]], par[class_of[join[base][c]]])
        for c, base in [(c, b) for c in off_ab]
        + [(c, off_ab[0]) for c in on_ab if c not in (a, b)]
    ]

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
    compose = [itemgetter(*s.image) for s in stabiliser]
    found = list(stabiliser)
    for m in partition.classes[class_of[line_ab]]:
        for a2 in plane.lines[m]:
            if a2 == a:
                continue  # its coset is the stabiliser itself
            f = next(dilations_from(a2, plane.lines[m]), None)
            if f is not None:  # else no dilation sends A to a2
                found += [_classified_dilation(plane, g(f.image)) for g in compose]
    found.sort(key=lambda f: f.image)
    return found
