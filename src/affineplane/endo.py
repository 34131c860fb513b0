"""Endomorphisms of the translation group and their ring structure.

A self-map of the group is a dense index table over the canonical
element order.  Addition is pointwise composition of the images,
multiplication is composition of the maps.  The trace-preserving maps
are the ones that keep every translation inside its own direction; on
them the two operations form an associative unitary ring.  The ring
laws a list can fail are checked by exhaustion, and the laws that hold
for any self-maps of a group are settled by proof (check_ring_axioms).

The operations on single maps (add, compose, negate, the zero, unit and
inversion maps) and the tests of one map or list (is_trace_preserving,
scalar_labeling) live in affineplane.definitions, which no benchmark
command loads; they are read here too, on first access.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator

from . import _forward
from .errors import SizeMismatch
from .incidence import AxiomCheck, IncidencePlane
from .transgroup import TranslationGroup, check_abelian, compose_images, generator_chain, generators

__getattr__ = _forward(__name__, dict.fromkeys((
    "add", "compose", "inversion_endo", "is_trace_preserving", "negate", "scalar_labeling",
    "unit_endo", "zero_endo"), "definitions"))


class GroupSelfMap(namedtuple("GroupSelfMap", "table")):
    """A total map on the translation group, as an element-index table (a tuple)."""

    __slots__ = ()


def _check_size(g: TranslationGroup, alpha: GroupSelfMap) -> None:
    if len(alpha.table) != g.order:
        raise SizeMismatch(
            f"table covers {len(alpha.table)} elements, group has {g.order}"
        )
    if min(alpha.table) < 0 or max(alpha.table) >= g.order:
        raise SizeMismatch(f"table has an entry outside range({g.order})")


def _sum_table(cayley, a: tuple, b: tuple) -> tuple:
    """The table of alpha + beta from the tables a, b of equal size."""
    return tuple([cayley[x][y] for x, y in zip(a, b)])


def is_endomorphism(g: TranslationGroup, alpha: GroupSelfMap) -> bool:
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
    table records composition of permutations.  Cost: |G| lookups per
    generator instead of |G|^2.
    """
    _check_size(g, alpha)
    t = alpha.table
    return t[0] == 0 and all(
        t[sx] == g.cayley[t[s]][tx]
        for s in generators(g)
        for sx, tx in zip(g.cayley[s], t)
    )


def enumerate_endomorphisms(g: TranslationGroup) -> list[GroupSelfMap]:
    """All endomorphisms, by a depth-first search along the generator chain.

    With s_1, ..., s_r = generators(g) and H_k = <s_1, ..., s_k>, the chain
    H_0 = {0} < H_1 < ... < H_r = G is saturated once, level k by a BFS
    over the left cosets c.H_(k-1) (generator_chain).  At level k the
    search picks an image y_k for s_k, sets the representatives by the
    tree edges t[s_j.c] := y_j.t[c], tests each relator s_j.c = c'.h as
    y_j.t[c] = t[c'].t[h], and only then fills t[c.h] := t[c].t[h] and
    descends; every table that survives level r is emitted.  The old
    route, each of the |G|^r assignments extended to a full table along
    one word per element, then is_endomorphism on that table, emits the
    same list:

    1. A leaf passes iff its table passes is_endomorphism.  By induction
       on k, t is a homomorphism on H_k iff it is one on H_(k-1) and
       level k's relators hold.  "=>" is clear.  "<=": t[0] = 0 (never
       filled), t[s_j] = y_j (level j's first tree edge), and each x in
       H_k is c.h for one representative c and one h in H_(k-1), with
       t[x] = t[c].t[h].  Each edge (j, c), j <= k, has s_j.c = c'.h' and
       t[s_j].t[c] = t[c'].t[h']: by construction for a tree edge
       (h' = 0), by the test for a relator, and as y_j = t[s_j] for a
       dropped (j < k, c = 0).  So t[s_j.x] = t[c'.h'h] = t[c'].t[h'].t[h]
       = t[s_j].t[c].t[h] = t[s_j].t[x], by associativity and the
       homomorphism on H_(k-1): is_endomorphism's generator identity on
       H_k = <s_1, ..., s_k>, which its proof extends to all of H_k.
    2. Pruning is sound.  Level k's test reads only entries of H_k, and
       deeper levels fill only entries outside H_k, so the leaf table of
       a passing leaf agrees there with its level-k node, and that node
       passed.  (Equivalently: a homomorphism restricts to one on H_k.)
    3. The lists are equal.  By 1, every emitted table is an
       endomorphism.  Each endomorphism phi is emitted at the leaf
       y_k = phi(s_k): the tree edges and fills there give
       phi(s_j.c) = phi(s_j).phi(c) and phi(c.h) = phi(c).phi(h), and
       every relator holds.  Every other leaf has some t[s_k] = y_k
       different from phi(s_k), so phi is emitted once.  The old route
       accepts the same set, one assignment each, since a homomorphism is
       fixed by its generator images.  Both lists are sorted by table.
    4. Depth-first order is table order, so no sort is needed.
       generator_chain picks s_k as the lowest index outside H_(k-1), so
       every index below s_k lies in H_(k-1), and the first tree edge of
       level k sets t[s_k] = y_k.  Two leaves whose images first differ at
       level k agree on H_(k-1), so on every index below s_k, and differ
       at s_k, where they are ordered by y_k; the loop tries y_k in
       ascending order.

    Nothing here uses commutativity, nor that H_(k-1) is normal in H_k.
    Cost per node at level k: its tree edges and relators, then its
    fills, instead of a full table and |G|.r pairs per assignment.
    """
    return [GroupSelfMap(t) for t in _chain_search(g)]


def count_endomorphisms(g: TranslationGroup) -> int:
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


def enumerate_tp_endomorphisms(plane: IncidencePlane, g: TranslationGroup) -> list[GroupSelfMap]:
    """The trace-preserving endomorphisms, by the same chain search, pruned.

    The search of enumerate_endomorphisms also requires
    allowed[z][t[z]] for every entry t[z] a level sets, by a tree edge or
    a fill, where allowed[z][y] = (y == 0 or direction_of[y] ==
    direction_of[z]), and prunes as soon as that fails.  The list equals
    End filtered by is_trace_preserving, in the same order:

    1. A leaf passes iff its table passes is_endomorphism and
       is_trace_preserving.  The new elements of the levels are the
       nonzero elements, each set once, by a tree edge or a fill, and
       tested when it is set; is_trace_preserving asks allowed[z][t[z]]
       of exactly these z.  The relator tests are those of claim 1 of
       enumerate_endomorphisms.
    2. Pruning is sound.  A tested entry of level k depends only on
       y_1, ..., y_k, and deeper levels never rewrite an entry of H_k, so
       every leaf below a pruned level-k node keeps the entry that failed
       there, and its table fails is_trace_preserving.
    3. The leaves are the endomorphisms that pass is_trace_preserving,
       each once (claim 3 of enumerate_endomorphisms), in table order as
       End is (claim 4), so filtering End keeps them in the same order.

    Cost: a node survives level k only if y_1, ..., y_k lie in the
    direction subgroups of s_1, ..., s_k, so at most q^k nodes do on a
    plane of order q, each tried against |G| images at the next level;
    filtering End tested all of End, 65,536 maps on AG(2,4).
    """
    return [GroupSelfMap(t) for t in _chain_search(g, g.direction_of)]


def _chain_search(g: TranslationGroup, directions: tuple | None = None) -> Iterator[tuple]:
    """The one search body of enumerate_endomorphisms, of
    enumerate_tp_endomorphisms given directions, and of
    count_endomorphisms on a group that is not abelian: yields each leaf
    table, in depth-first order, which is table order (claim 4 of
    enumerate_endomorphisms).

    t is the table under construction, zero at the start.  Level k tries
    each image y_k of gens[k] in ascending order: it sets the level's
    representatives by the tree edges, tests its relators, fills its
    other new elements, and descends for each y_k that passes, with t set
    on H_(k+1).  rows[j] = cayley[y_j], and cayley[0] until level j sets
    it.  keep[z][y] says whether t[z] = y is allowed."""
    _, levels = generator_chain(g)
    cayley = g.cayley
    if directions is None:
        keep = [(True,) * g.order] * g.order
    else:
        allowed = {
            d: tuple(y == 0 or directions[y] == d for y in range(g.order))
            for d in set(directions)
        }
        keep = [allowed[d] for d in directions]
    t = [0] * g.order
    rows = [cayley[0]] * len(levels)

    def search(k: int) -> Iterator[tuple]:
        if k == len(levels):
            yield tuple(t)
            return
        tree, relators, fills = levels[k]
        for y in range(g.order):
            rows[k] = cayley[y]
            for c2, j, c in tree:
                v = t[c2] = rows[j][t[c]]
                if not keep[c2][v]:
                    break
            else:
                for j, c, c2, h in relators:
                    if rows[j][t[c]] != cayley[t[c2]][t[h]]:
                        break
                else:
                    for z, c, h in fills:
                        v = t[z] = cayley[t[c]][t[h]]
                        if not keep[z][v]:
                            break
                    else:
                        yield from search(k + 1)

    return search(0)


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
    def all_pass(self) -> bool:
        return all(self.axioms[name][0] for name in self.AXIOM_NAMES)

    def to_dict(self) -> dict:
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

    def __init__(self, op, ids: dict):
        super().__init__()
        self.op, self.ids, self.tables = op, ids, list(ids)

    def __missing__(self, key):
        a, b = key
        t = self.op(*[self.tables[x] if type(x) is int else x for x in key])
        value = self.ids.get(t, t)
        if type(a) is type(b) is int:
            self[key] = value
        return value


def check_ring_axioms(
    plane: IncidencePlane,
    g: TranslationGroup,
    tp: list[GroupSelfMap],
    num_endomorphisms: int | None = None,
) -> RingReport:
    """The ring axioms over a list of trace-preserving maps: scanned by
    exhaustion where a list can fail them, settled by proof elsewhere.

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
    ids: dict = {}
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
