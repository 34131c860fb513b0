"""The End search: every endomorphism of the translation group, or every
trace-preserving one, by a depth-first search along the generator chain.

No benchmark command runs it on a translation plane: there endo counts
End from element orders (endo.count_endomorphisms) and reads the
trace-preserving maps from Dil_0 (endo.tp_endomorphisms).  Only `endo
--dump`, the count of a group that is not abelian and the TP maps of a
Tr that is not transitive load this module.  Each name is also read from
affineplane.endo, on first access.
"""

from .endo import GroupSelfMap
from .transgroup import generator_chain


def enumerate_endomorphisms(g):
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


def enumerate_tp_endomorphisms(plane, g):
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


def _chain_search(g, directions=None):
    """The one search body of enumerate_endomorphisms, of
    enumerate_tp_endomorphisms given directions (g.direction_of), and of
    count_endomorphisms on a group that is not abelian: yields each leaf
    table, a tuple, in depth-first order, which is table order (claim 4 of
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

    def search(k):
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
