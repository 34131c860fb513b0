"""Endomorphisms of the translation group and their ring structure.

A self-map of the group is a dense index table over the canonical
element order.  Addition is pointwise composition of the images,
multiplication is composition of the maps.  The trace-preserving maps
are the ones that keep every translation inside its own direction; on
them the two operations form an associative unitary ring.  The ring
laws a list can fail are checked by exhaustion, and the laws that hold
for any self-maps of a group are settled by proof (check_ring_axioms).

The commands list no End.  They count it from element orders
(count_endomorphisms), and read the trace-preserving maps from the
dilations that fix a point (tp_endomorphisms).  The End search that lists
End, or its trace-preserving maps, lives in affineplane.search, which
only `endo --dump`, a group that is not abelian and a translation group
too small for tp_endomorphisms load.  The operations on single maps
(add, compose, negate, the zero, unit and inversion maps) and the tests
of one map or list (is_trace_preserving, scalar_labeling) live in
affineplane.definitions, which no benchmark command loads.  The names of
both modules are read here too, on first access.
"""

import itertools
from collections import namedtuple

from . import _forward
from .errors import SizeMismatch
from .incidence import AxiomCheck
from .transgroup import _gather, check_abelian, compose_images, generators

__getattr__ = _forward(__name__, {
    "definitions": "add compose inversion_endo is_trace_preserving negate scalar_labeling"
                   " unit_endo zero_endo",
    "search": "_chain_search enumerate_endomorphisms enumerate_tp_endomorphisms",
})


class GroupSelfMap(namedtuple("GroupSelfMap", "table")):
    """A total map on the translation group, as an element-index table (a tuple)."""

    __slots__ = ()


def _check_size(g, alpha):
    if len(alpha.table) != g.order:
        raise SizeMismatch(
            f"table covers {len(alpha.table)} elements, group has {g.order}"
        )
    if min(alpha.table) < 0 or max(alpha.table) >= g.order:
        raise SizeMismatch(f"table has an entry outside range({g.order})")


def _sum_table(cayley, a, b):
    """The table of alpha + beta from the tables a, b of equal size."""
    return tuple([cayley[x][y] for x, y in zip(a, b)])


def is_endomorphism(g, alpha):
    """Compatibility with the group operation, tested at the generators.

    Accepts iff t[0] = 0 and t[s.x] = t[s].t[x] for every generator s and
    every element x, which is equivalent to t[w.x] = t[w].t[x] at every
    pair (w, x).  Proof, by induction on the length of a word for w:
    every element is a positive word in the generators (each has finite
    order, so no inverse letters are needed).  The empty word is w = 0,
    and t[0.x] = t[x] = t[0].t[x] because t[0] = 0.  For w = s.v with s a
    generator, t[w.x] = t[s.(v.x)] = t[s].t[v.x] = t[s].t[v].t[x]
    = t[s.v].t[x], using the generator identity twice, the induction
    hypothesis once and associativity, which holds because the Cayley
    table records composition of permutations.  Cost: per generator, two
    C-level gathers of |G| entries, (t[s.x])_x and (t[s].t[x])_x, instead
    of |G|^2 lookups.
    """
    _check_size(g, alpha)
    t = alpha.table
    image = _gather(t)  # a row r -> (r[t[x]])_x
    return t[0] == 0 and all(
        _gather(g.cayley[s])(t) == image(g.cayley[t[s]]) for s in generators(g))


def count_endomorphisms(g):
    """|End|, from element orders when g is abelian, else as the number
    of leaves of the search of enumerate_endomorphisms.

    For each prime p dividing |G|, let c_k = |G[p^k]|, the number of x
    with x^(p^k) = 0, so c_0 = 1.  Then |End| is the product over p and
    k >= 1 of (c_k / c_(k-1))^(a_k), where c_k / c_(k-1) = p^(a_k).
    Proof, for an abelian g (Hillar and Rhea, Amer. Math. Monthly 114, 2007):

    1. G is the direct sum of its p-parts G_p, and an endomorphism maps
       each G_p into itself, so End(G) is the product of the End(G_p).
    2. G_p is a sum of cyclic groups Z_(p^l_i), End(G_p) the sum over
       (i, j) of Hom(Z_(p^l_i), Z_(p^l_j)), and Hom(Z_(p^a), Z_(p^b)) has
       p^min(a,b) elements, one per element of Z_(p^b) whose order
       divides p^a, the image of the generator.  So |End(G_p)| = p^e,
       with e the sum of min(l_i, l_j) over all pairs (i, j).
    3. G[p^k] is the sum of the Z_(p^min(l_i,k)), so c_k / c_(k-1) =
       p^(a_k), a_k = #{i : l_i >= k}, and e = sum over k of a_k^2: a
       pair (i, j) is counted at each k <= min(l_i, l_j).  Once a_k = 0,
       that is c_k = c_(k-1), every later a_k is 0 too.

    Nothing is searched: x -> x^p is built by square and multiply, one
    pass over the Cayley table per bit of p after the first and one more
    per 1 among them, at most 2 log2(p), and each c_k takes one more pass,
    where a walk meets 3^16 leaves on order 9.
    """
    if not check_abelian(g).passed:
        from .search import _chain_search

        return sum(1 for _ in _chain_search(g))
    count, rest, p = 1, g.order, 1
    while rest > 1:
        p += 1
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        pth = list(range(g.order))  # pth[x] = x^m, m the bits of p read so far
        for bit in bin(p)[3:]:
            pth = [g.cayley[y][y] for y in pth]
            if bit == "1":
                pth = [g.cayley[y][x] for x, y in enumerate(pth)]
        power, last = pth, 1  # power[x] = x^(p^k), last = c_(k-1)
        while (c := power.count(0)) > last:
            a = next(a for a in range(1, c.bit_length()) if p**a * last == c)
            count *= (c // last) ** a
            power, last = [pth[y] for y in power], c
    return count


def tp_endomorphisms(plane, g, stabiliser):
    """The trace-preserving endomorphisms, the list that
    enumerate_tp_endomorphisms gives, read from Dil_0 when Tr is
    transitive on the points; else, or when the scan below fails, by that
    search.

    stabiliser is Dil_0, the dilations that fix point 0, as
    dilation_cosets lists them, and g is Tr as build_group orders it.  The
    gate: g.order = plane.num_points.  Then element i is the translation
    tau_i with tau_i(0) = i, as build_group sorts Tr by image, and no two
    translations agree at 0.  For sigma in Dil_0, conj_sigma(tau) = sigma.tau.sigma^-1 is a
    translation of the direction of tau (Artin, Geometric Algebra, ch.
    II), so conj_sigma is a trace-preserving endomorphism, and
    conj_sigma(tau_i)(0) = sigma(i): its table is sigma.image.  The list
    is the zero map and these tables, sorted, which is the order of the
    search (claim 4 of enumerate_endomorphisms).

    Every nonzero trace-preserving map alpha is one of them.  alpha is
    injective: if alpha(tau) = 0 for some tau != 0, then for tau' of any
    other direction, tau.tau' has a third direction, and alpha(tau.tau')
    = alpha(tau') must lie in both the direction of tau' and the third
    one, so alpha(tau') = 0; the same step from a kernel element of
    another direction puts the direction of tau in the kernel too, and
    alpha = 0.  So sigma(Q) = alpha(tau_Q)(0) is injective and fixes 0,
    and for P != Q the translation alpha(tau_Q).alpha(tau_P)^-1 =
    alpha(tau_Q.tau_P^-1) is nonzero, has the direction of PQ and sends
    sigma(P) to sigma(Q): sigma is a dilation in Dil_0.  conj_sigma and
    alpha agree at 0 on every tau_Q, and a translation is fixed by its
    image of 0, so alpha = conj_sigma.  Distinct sigma have distinct
    tables, so the list has |Dil_0| + 1 maps.

    The list is scanned, not trusted.  One of its k = |Dil_0| tables,
    gamma, must bring point 1 back to 1 in exactly k steps, and pass
    is_endomorphism and the direction test, each by C-level gathers.  It
    is then a trace-preserving endomorphism, so by the above the table of
    a dilation, and its powers gamma, ..., gamma^k are k distinct ones,
    since they differ at 1.  Each power, one gather from the last, must
    be the listed table with its entry at 1: so the k tables are exactly
    the powers, with no repeat and none of another size, and each is a
    trace-preserving endomorphism, as composites of such maps are.
    Last, the entries at 1 of the listed maps, with 0, must be closed
    under x -> x.tau_1, that is the list under adding the unit map
    (alpha + 1)(tau_1) = alpha(tau_1).tau_1, as the whole list is.  This
    catches a list that lacks one map of Dil_0: if it lacks x, it holds
    x - 1, and (x - 1) + 1 = x.  That no other dilation fixes 0 is
    dilation_cosets' claim: each candidate (0, B') is tested or reached
    by a composite (its Fact 5).
    """
    if g.order == plane.num_points and (tp := _from_stabiliser(g, stabiliser)):
        return tp
    from .search import enumerate_tp_endomorphisms

    return enumerate_tp_endomorphisms(plane, g)


def _from_stabiliser(g, stabiliser):
    """The list of tp_endomorphisms, read from Dil_0 on a Tr of one
    element per point, or None where the scan fails."""
    k = len(stabiliser)
    by_one = {s.image[1]: s.image for s in stabiliser}
    for gamma in by_one.values():  # a table that brings 1 back to 1 in k steps
        y, steps = gamma[1], 1
        while y != 1 and steps < k:
            y, steps = gamma[y], steps + 1
        if y == 1 and steps == k:
            break
    else:
        return None
    power, step = gamma, _gather(gamma)
    if not (is_endomorphism(g, GroupSelfMap(gamma)) and step(g.direction_of) == g.direction_of):
        return None
    for _ in range(k):
        if by_one.get(power[1]) != power:
            return None
        power = step(power)  # power.gamma, the next power
    ones = {0, *by_one}
    if all(g.cayley[y][1] in ones for y in ones):  # closed under adding the unit
        return [GroupSelfMap(t) for t in sorted([(0,) * g.order, *by_one.values()])]
    return None


class RingReport(namedtuple("RingReport", "axioms mul_commutative num_tp num_endomorphisms",
                            defaults=(None,))):
    """Outcome of the ring-axiom checks over a trace-preserving set.

    ``axioms`` maps axiom name -> (passed, witness or None); witnesses
    index into the checked list.  ``mul_commutative`` is informational,
    not part of the pass criterion.  ``num_tp`` counts the list, and
    ``num_endomorphisms``, when given, End.
    """

    __slots__ = ()

    AXIOM_NAMES = (
        "add_closure",
        "add_associative",
        "add_identity",
        "add_inverses",
        "add_commutative",
        "mul_closure",
        "mul_associative",
        "left_distributive",
        "right_distributive",
        "mul_identity",
    )

    @property
    def all_pass(self):
        return all(self.axioms[name][0] for name in self.AXIOM_NAMES)

    def to_dict(self):
        return {
            "axioms": {name: AxiomCheck(*check).to_dict() for name, check in self.axioms.items()},
            "mul_commutative": self.mul_commutative,
            "num_tp": self.num_tp,
            **(
                {"num_endomorphisms": self.num_endomorphisms}
                if self.num_endomorphisms is not None
                else {}
            ),
            "all_pass": self.all_pass,
        }


class _Operation(dict):
    """S or P of check_ring_axioms: self[a, b] is the value of a op b.

    A value is the id of a listed table, or a table that is not listed.
    An entry is formed on its first read, and kept only when both
    operands are ids: at most k^2 entries for a list of k maps."""

    def __init__(self, op, ids):
        super().__init__()
        self.op, self.ids, self.tables = op, ids, list(ids)

    def __missing__(self, key):
        a, b = key
        t = self.op(*[self.tables[x] if type(x) is int else x for x in key])
        value = self.ids.get(t, t)
        if type(a) is type(b) is int:
            self[key] = value
        return value


def check_ring_axioms(plane, g, tp, num_endomorphisms=None):
    """The ring axioms over tp, a list of trace-preserving GroupSelfMap:
    scanned by exhaustion where a list can fail them, settled by proof
    elsewhere.  A RingReport; num_endomorphisms, |End| when known, is
    passed on to it.

    Failures are report content with a minimal witness, never exceptions,
    so deliberately broken fixtures can be inspected.  Tables are checked
    once, for the whole list.  Each distinct listed table gets an id, in
    order of first occurrence, and a sum or product is its id when the
    result is listed and its table when it is not (_Operation).  So two
    values are equal iff their tables are, and a value is listed iff it
    is an id: every scan compares values, and on a closed list each
    triple costs only lookups in the Cayley tables S and P of the ring.
    The scans run in index order, and witnesses index into the list.

    Proofs, for any self-maps x, y, z of the group, at each element s.
    Associativity of +, of o and right distributivity hold: each side is
    the same product, x(s).y(s).z(s) by associativity of the Cayley
    table, x(y(z(s))), and x(z(s)).y(z(s)).  x + 0 = x = 0 + x as 0 is
    the identity, and x o 1 = x = 1 o x, so a unit law holds iff its
    table is listed.  x + (-x) = 0 holds in any group, so add_inverses
    asks only that -x, the inversion map composed with x, be listed.
    x(y(s).z(s)) = x(y(s)).x(z(s)) when x is an endomorphism, so left
    distributivity is scanned only for the x whose table is not one.
    """
    for a in tp:
        _check_size(g, a)
    ids = {}
    for a in tp:
        ids.setdefault(a.table, len(ids))
    values = [ids[a.table] for a in tp]
    S = _Operation(lambda a, b: _sum_table(g.cayley, a, b), ids)
    P = _Operation(compose_images, ids)
    minus = ids.get(g.inverse, g.inverse)

    def first_failure(arity, holds, rows=range(len(tp))):
        for witness in itertools.product(rows, *[range(len(tp))] * (arity - 1)):
            if not holds(*[values[i] for i in witness]):
                return False, witness
        return True, None

    def unit_law(unit, name):
        return (True, None) if unit in ids else (False, (f"{name} endomorphism missing",))

    proven = True, None
    axioms = {
        "add_closure": first_failure(2, lambda x, y: type(S[x, y]) is int),
        "add_associative": proven,
        "add_identity": unit_law((0,) * g.order, "zero"),
        "add_inverses": first_failure(1, lambda x: type(P[minus, x]) is int),
        "add_commutative": first_failure(2, lambda x, y: S[x, y] == S[y, x]),
        "mul_closure": first_failure(2, lambda x, y: type(P[x, y]) is int),
        "mul_associative": proven,
        "left_distributive": first_failure(
            3, lambda x, y, z: P[x, S[y, z]] == S[P[x, y], P[x, z]],
            [i for i, a in enumerate(tp) if not is_endomorphism(g, a)]),
        "right_distributive": proven,
        "mul_identity": unit_law(tuple(range(g.order)), "unit"),
    }
    return RingReport(
        axioms=axioms,
        mul_commutative=first_failure(2, lambda x, y: P[x, y] == P[y, x])[0],
        num_tp=len(tp),
        num_endomorphisms=num_endomorphisms,
    )
