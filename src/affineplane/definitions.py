"""The definitions, one map at a time, that no benchmark command calls.

classify and its predicates test a point map against the definitions of
collineation, dilation and translation, and compose_cosets and
enumerate_dilations list all of Dil; add, compose, negate and the named
endomorphisms are End's operations on single maps, and
is_trace_preserving and scalar_labeling test one map or one list.
check_normal_in_dilations and check_conjugation_direction are the two
verdicts of check_conjugation one at a time, and _inverse the inverse
its point-by-point pass reads.  The commands read the same facts from
dilation_cosets, the chain search, the ring scans and one call of
check_conjugation, so only the tests, the demos, `groups --dilations`
(compose_cosets) and a map that check_conjugation conjugates point by
point load it.  The End operations import what they read of
endo in their bodies, so that `groups --dilations` compiles no endo.
Each name is also read from the module of its stage, collineation,
conjugation or endo (a module __getattr__, PEP 562).
"""

from operator import itemgetter

from .collineation import (
    ClassifiedMap, _as_dilation, _classified_dilation, dilation_cosets, fixed_points,
)
from .errors import NotEndomorphism, SizeMismatch
from .transgroup import compose_images


def _check_size(plane, image):
    if len(image) != plane.num_points:
        raise SizeMismatch(
            f"map covers {len(image)} points, plane has {plane.num_points}"
        )


def is_collineation(plane, image):
    """Every line's image point set is a line."""
    return classify(plane, image).kind != "general"


def is_dilation(plane, image):
    """A collineation sending every joining line to a parallel one."""
    return classify(plane, image).kind in ("dilation", "translation")


def is_translation(plane, image):
    """A dilation with no fixed point, or the identity."""
    return classify(plane, image).kind == "translation"


def classify(plane, image):
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


def compose_cosets(plane, stabiliser, representatives):
    """Every dilation f s, f the identity or a representative and s in
    Dil_0, untested and sorted by image (see dilation_cosets)."""
    compose = [itemgetter(*s.image) for s in stabiliser]
    found = list(stabiliser)
    for f in representatives:
        found += [_classified_dilation(plane, g(f.image)) for g in compose]
    found.sort(key=lambda f: f.image)
    return found


def enumerate_dilations(plane):
    """All dilations, sorted by image: the cosets of Dil_0, composed."""
    return compose_cosets(plane, *dilation_cosets(plane))


def _inverse(image):
    """The inverse permutation of an image tuple, as a tuple."""
    inv = [0] * len(image)
    for p, q in enumerate(image):
        inv[q] = p
    return tuple(inv)


def check_normal_in_dilations(g, dilations):
    """Every conjugate of a translation by a dilation is again a translation."""
    from .conjugation import check_conjugation

    return check_conjugation(g, dilations)[0]


def check_conjugation_direction(g, dilations):
    """Conjugation by a dilation preserves the direction of a translation."""
    from .conjugation import check_conjugation

    return check_conjugation(g, dilations)[1]


def add(g, alpha, beta):
    """(alpha + beta)(s) = alpha(s) o beta(s)."""
    from .endo import GroupSelfMap, _check_size as _check_table, _sum_table

    _check_table(g, alpha)
    _check_table(g, beta)
    return GroupSelfMap(_sum_table(g.cayley, alpha.table, beta.table))


def compose(g, alpha, beta):
    """(alpha o beta)(s) = alpha(beta(s))."""
    from .endo import GroupSelfMap, _check_size as _check_table

    _check_table(g, alpha)
    _check_table(g, beta)
    return GroupSelfMap(compose_images(alpha.table, beta.table))


def zero_endo(g):
    """Sends every translation to the identity."""
    from .endo import GroupSelfMap

    return GroupSelfMap((0,) * g.order)


def unit_endo(g):
    """Leaves every translation in place."""
    from .endo import GroupSelfMap

    return GroupSelfMap(tuple(range(g.order)))


def inversion_endo(g):
    """Sends every translation to its inverse.

    An endomorphism because the group is abelian; trace-preserving
    because a translation and its inverse share their direction.
    """
    from .endo import GroupSelfMap

    return GroupSelfMap(g.inverse)


def negate(g, alpha):
    """Pointwise inverse of alpha: the composite of inversion with alpha."""
    from .endo import is_endomorphism

    if not is_endomorphism(g, alpha):
        raise NotEndomorphism("negate requires an endomorphism")
    return compose(g, inversion_endo(g), alpha)


def is_trace_preserving(plane, g, alpha):
    """Every image keeps its translation's direction.

    Elements mapped to the identity are accepted: the identity has no
    direction, and the zero map must count as trace-preserving.
    """
    from .endo import is_endomorphism

    if not is_endomorphism(g, alpha):
        raise NotEndomorphism("trace preservation is defined for endomorphisms")
    return all(
        alpha.table[i] == 0 or g.direction_of[alpha.table[i]] == g.direction_of[i]
        for i in range(1, g.order)
    )


def scalar_labeling(g, tp):
    """Label the trace-preserving maps 0, 1, 1+1, ... when that covers them all.

    Returns labels[i] = k meaning tp[i] is the k-fold sum of the unit, or
    None when the scalar sums do not exhaust the list.  Used to compare
    the ring's tables with arithmetic modulo the label count.  Each of the
    len(tp) steps labels a new index, so every label is set at the end.
    """
    index = {a.table: i for i, a in enumerate(tp)}
    unit = unit_endo(g)
    labels = [-1] * len(tp)
    current = zero = zero_endo(g)
    for k in range(len(tp)):
        i = index.get(current.table)
        if i is None or labels[i] != -1:
            return None
        labels[i] = k
        current = add(g, current, unit)
    if current.table != zero.table:
        return None
    return labels
