"""The conjugation pass: translations under conjugation by dilations,
and directions under composition.

check_conjugation conjugates Tr by a generating set of Dil once, for two
verdicts: Tr is normal in Dil, and conjugation keeps each translation's
direction; check_composition_direction scans the composites of
translations of one direction.  Only groups and verify-all load this
module; transgroup reads its names too, on first access.  The one-verdict
forms check_normal_in_dilations and check_conjugation_direction, and
_inverse, which only the point-by-point pass of check_conjugation reads,
live in affineplane.definitions, and are read here on first access.
"""

from . import _forward
from .transgroup import CheckResult, _gather, generator_chain, generators

__getattr__ = _forward(__name__, {
    "definitions": "_inverse check_conjugation_direction check_normal_in_dilations"})


def _dilation_generators(stabiliser, representatives, group):
    """Generators of Dil_0, the representatives that are no translations and
    generators of Tr: they generate Dil, so check_conjugation passes on them
    iff on Dil (dilation_cosets, Fact 3).

    The generators of Dil_0 are the maps that dilation_cosets tested: each
    s of stabiliser, in order, whose image of B = 1 is not in the orbit of
    B under the generators before it.  A map of Dil_0 is fixed by its
    image of B (Fact 5), so that orbit is the group they generate, one
    point per map, and each generator takes one lookup per point and
    generator so far."""
    orbit, gens = [1], []
    for s in stabiliser:
        if s.image[1] not in orbit:
            gens.append(s)
            for x in orbit:  # grows as it is read: a BFS over the orbit of B
                orbit += {g.image[x] for g in gens}.difference(orbit)
    return [*gens, *(f for f in representatives if f.kind != "translation"),
            *(group.elements[i] for i in generators(group))]


def check_conjugation(g, dilations):
    """Conjugate every translation by every dilation, once, for two checks.

    dilations is a list of ClassifiedMap.  Returns the CheckResults
    (normal_in_dilations, conjugation_direction).  The first
    passes iff every conjugate d^-1.t.d (d applied first) is a listed
    translation, and fails with the first witness (di, si) in scan order
    whose conjugate is not.  The second passes iff moreover every
    non-identity translation and its conjugate share a direction, and
    fails with the first (di, si), si >= 1, that breaks either condition.

    Both verdicts come from one table per dilation d: conj[si] is the
    index of d^-1.s.d, or None when that map is not listed.  One scan of
    it finds the first si with no conjugate, which fails both checks (the
    second from si = 1), and
    the first whose conjugate changes direction.  conj[0] = 0, and
    conjugation by a permutation is injective, so conj[si] = 0 only for
    si = 0: the scan finds no witness there and compares every other
    direction.

    Each generator s's conjugate is looked up by the key build_group
    indexes Tr by, its images of points 0 and 1, d^-1(s(d(0))) and
    d^-1(s(d(1))), reading d^-1 at those two points only (d.index), and
    the listed t with that key, if any, is confirmed by d.t = s.d, two
    C-level gathers: for a permutation d that says t = d^-1.s.d, and the
    conjugate, if listed, is the one element with its key.  So no inverse
    of d is built unless the point-by-point pass below needs it.  A map
    that is no permutation has no d^-1 to read, and goes to that pass,
    where no conjugate is a permutation, so none is listed: the normal
    check fails at (di, 0), conj[0] = _inverse(d).d, and the direction
    check, which starts at si = 1, at (di, 1), or past d when Tr is
    trivial.
    When each generator's conjugate is listed,
    the table is filled along the generator chain from conj[0] = 0, one
    Cayley lookup per tree edge or fill: conj[gens[j].c] :=
    conj[gens[j]].conj[c] and conj[c.h] := conj[c].conj[h].  This is the
    conjugate itself, whatever permutation d is: conjugation by d is an
    automorphism of the symmetric group, the Cayley table records
    composition within the list, which build_group checked to be closed,
    and the tree edges and fills set every nonzero element once, after
    the elements they read.  A map with a generator whose conjugate is
    not listed is conjugated point by point on every element, as the
    definition reads, to find the first witness.  So d's kind is not
    read: a permutation labelled "dilation" that is none gets the
    definition's verdicts.

    The CLI passes generators of Dil_0, the representatives of
    dilation_cosets that are no translations and generators(g)
    (_dilation_generators): they generate Dil, which is enough (Fact 3 of
    dilation_cosets).
    When g is all of Tr, both checks pass for every dilation d of any
    affine plane (Artin, Geometric Algebra, ch. II): d^-1.t.d is a
    dilation, and if it fixes p, t fixes d(p), so both are the identity;
    and d^-1 maps the trace join(p, t(p)) onto a parallel, the trace of
    d^-1.t.d at d^-1(p).  So a witness needs a map that is no dilation,
    or a group that is not all of Tr, which a dilation can conjugate off
    the list; its di indexes the list passed.
    """
    normal = None
    direction = None
    gens, levels = generator_chain(g)
    gen_images = [g.elements[s].image for s in gens]
    direction_of = g.direction_of
    for di, delta in enumerate(dilations):
        d = delta.image
        images = [None]  # a map that is no permutation is conjugated point by point
        if len(set(d)) == len(d):
            then_d = _gather(d)  # f -> f.d, as an image
            images = [t if (t := g._by_key.get((d.index(s[d[0]]), d.index(s[d[1]])))) is not None
                      and _gather(g.elements[t].image)(d) == then_d(s) else None
                      for s in gen_images]
        if None in images:
            from .definitions import _inverse

            inv = _inverse(d)
            conj = [g.index_of(tuple([inv[s.image[q]] for q in d])) for s in g.elements]
        else:
            conj = [0] * g.order
            for tree, _, fills in levels:
                for y, j, x in tree:
                    conj[y] = g.cayley[images[j]][conj[x]]
                for z, c, h in fills:
                    conj[z] = g.cayley[conj[c]][conj[h]]
        for si, ci in enumerate(conj):
            if ci is None:
                normal = normal or CheckResult("normal_in_dilations", False, (di, si))
                if si:  # the direction scan starts at si = 1
                    direction = direction or CheckResult("conjugation_direction", False, (di, si))
                    break
            elif direction is None and direction_of[ci] != direction_of[si]:
                direction = CheckResult("conjugation_direction", False, (di, si))
        if normal is not None and direction is not None:
            break
    return (
        normal or CheckResult("normal_in_dilations", True),
        direction or CheckResult("conjugation_direction", True),
    )


def check_composition_direction(g):
    """Composing two translations of one direction stays in that direction.

    Fails with the first pair (i, j), i, j >= 1, in the all-pairs scan
    order: each i is tried against the j of its own direction only."""
    same = {}
    for j in range(1, g.order):
        same.setdefault(g.direction_of[j], []).append(j)
    for i in range(1, g.order):
        d = g.direction_of[i]
        for j in same[d]:
            k = g.cayley[j][i]
            if k != 0 and g.direction_of[k] != d:
                return CheckResult("composition_direction", False, (i, j))
    return CheckResult("composition_direction", True)
