"""The local tests and lookups agree with the definitions they replace.

``is_endomorphism`` checks the homomorphism identity at the generators
only, ``generator_chain`` saturates the group once for every reader of
the generators, ``enumerate_endomorphisms`` searches along that chain,
tests one relator per coset edge of each level and meets its leaves in
table order, so nothing is sorted, ``count_endomorphisms`` counts End of
an abelian group from its element orders instead of its leaves,
``enumerate_tp_endomorphisms`` prunes that search by direction instead
of filtering End, ``check_abelian`` settles both End closure theorems
without listing End, ``verify_axioms`` counts joins and parallels with line
bitmasks, settles unique join per point from the cover and the size of
its pencil, unique parallel from line sizes and point degrees once unique
join holds and the triangle axiom by point pairs, ``classify``
tests "dilation" from the parallel table on all classes but the last
and reads a translation's direction from the trace of point 0,
``dilation_cosets`` tests candidates only for the images of point 0
that no composite of the translations found has reached, the
translation first, and ``compose_cosets`` composes the rest from the
stabiliser of 0, ``check_conjugation`` is run on the stabiliser and
the representatives only,
``check_composition_direction`` pairs translations of one direction only,
``build_group`` reads each Cayley entry from a two-point key and
rejects a list that repeats one,
``check_ring_axioms`` compares ids in the ring's own Cayley tables
and scans only the laws a list can fail,
``check_conjugation`` fills one table per dilation from the conjugates
of the generators, looked up by their whole images, and reads both verdicts
from one scan of it, ``parallel_partition`` reads the classes from the pencil
at point 0, and the parallel and meet tables answer in one lookup.  The
all-pairs, union-find, product-and-test, filtering, scanning,
table-per-triple, candidate-by-candidate, one-test-per-point
(``cosets_oracle``), backtracking and closed-form
(``gcd_product_oracle``, with the leaves of the listed End) definitions
live here, as oracles, and every test below asks both for a verdict on
the same inputs.  The collineations
of a small plane come from a backtracking search (``collineations_oracle``),
a translation's direction from every one of its traces
(``trace_direction_oracle``)."""

import itertools
import math
import random
from functools import partial

import pytest

from affineplane import (
    AxiomReport,
    ClassifiedMap,
    GroupSelfMap,
    add,
    build_group,
    build_prime_plane,
    check_abelian,
    check_composition_direction,
    check_conjugation,
    check_conjugation_direction,
    check_normal_in_dilations,
    classify,
    compose,
    count_endomorphisms,
    enumerate_dilations,
    enumerate_endomorphisms,
    enumerate_tp_endomorphisms,
    is_collineation,
    is_dilation,
    is_endomorphism,
    is_trace_preserving,
    load_plane,
    parallel_partition,
    verify_axioms,
)
from affineplane.endo import (
    RingReport,
    _chain_search,
    _check_size,
    _sum_table,
    check_ring_axioms,
)
from affineplane.errors import (
    AffinePlaneError,
    NotClosed,
    NotTranslation,
    SizeMismatch,
)
from affineplane import cli, collineation, endo, incidence, transgroup
from affineplane.incidence import AxiomCheck
from affineplane.transgroup import (
    CheckResult,
    TranslationGroup,
    compose_images,
    generator_chain,
    generators,
)
from conftest import (
    ag24_document,
    ag29_document,
    corrupted_documents,
    dual_hall9_cut,
    hall9_document,
    identity_map,
    table_group,
)
from test_endo import brute_force_endomorphisms
from test_transgroup import span


def endomorphism_oracle(g, table):
    """The definition: t[0] = 0 and t[i.j] = t[i].t[j] at every pair."""
    n = g.order
    return table[0] == 0 and all(
        table[g.cayley[i][j]] == g.cayley[table[i]][table[j]]
        for i in range(n)
        for j in range(n)
    )


def element_words(g):
    """One word over generators(g) per element, from a BFS that starts at 0."""
    gens = generators(g)
    words = [None] * g.order
    words[0] = ()
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for gi, s in enumerate(gens):
            y = g.cayley[s][x]
            if words[y] is None:
                words[y] = words[x] + (gi,)
                frontier.append(y)
    assert None not in words, "generators(g) do not span the group"
    return words


def extend_along_words(g, words, images):
    """The table of generators(g)[k] -> images[k]: the element with word
    (k1, ..., km) goes to images[km] o ... o images[k1].  It is the
    homomorphism with those images when one exists."""
    table = []
    for w in words:
        acc = 0
        for k in w:
            acc = g.cayley[images[k]][acc]
        table.append(acc)
    return tuple(table)


def endomorphisms_oracle(g):
    """The product-and-test search: every assignment of generator images,
    extended along the words, kept iff the full table is an endomorphism."""
    out = []
    words = element_words(g)
    for images in itertools.product(range(g.order), repeat=len(generators(g))):
        alpha = GroupSelfMap(extend_along_words(g, words, images))
        if is_endomorphism(g, alpha):
            out.append(alpha)
    out.sort(key=lambda a: a.table)
    return out


def tp_endomorphisms_oracle(plane, g):
    """The filter: End, kept iff is_trace_preserving."""
    return [a for a in enumerate_endomorphisms(g) if is_trace_preserving(plane, g, a)]


def collineation_oracle(plane, image):
    return all(
        frozenset(image[p] for p in pts) in plane.line_index for pts in plane.lines
    )


def collineations_oracle(plane):
    """Every collineation's image, sorted, by backtracking over point
    images: a partial assignment is pruned as soon as the assigned images
    of a line stop fitting on a common line.  Exponential; the tests call
    it on AG(2,2) and AG(2,3) only."""
    n = plane.num_points
    join = plane.join_table()
    found = []
    image = [-1] * n
    used = [False] * n

    def consistent(p, b):
        for lid in plane.lines_through[p]:
            imgs = [image[q] for q in plane.lines[lid] if q != p and image[q] != -1]
            if not imgs:
                continue
            if b in imgs:
                return False
            if len(imgs) == 1:
                continue
            target = plane.lines[join[imgs[0]][imgs[1]]]
            if b not in target or any(i not in target for i in imgs):
                return False
        return True

    def extend(p):
        if p == n:
            found.append(tuple(image))
            return
        for b in range(n):
            if used[b] or not consistent(p, b):
                continue
            image[p] = b
            used[b] = True
            extend(p + 1)
            image[p] = -1
            used[b] = False

    extend(0)
    return sorted(found)


def dilation_oracle(plane, image):
    """The definition: a collineation keeping every joining line's class."""
    if not collineation_oracle(plane, image):
        return False
    join = plane.join_table()
    class_of = parallel_partition(plane).class_of
    n = plane.num_points
    return all(
        class_of[join[p][q]] == class_of[join[image[p]][image[q]]]
        for p in range(n)
        for q in range(p + 1, n)
    )


def candidate_builder(plane):
    """complete(a2, b2): the candidate sending (0, 1) to (a2, b2), extended
    pointwise by intersecting parallels, or None where two parallels
    coincide."""
    n = plane.num_points
    join = plane.join_table()
    par, meet = plane.parallel_table(), plane.meet_table()
    class_of = parallel_partition(plane).class_of
    on_ab = plane.lines[join[0][1]]
    off_ab = [c for c in range(n) if c not in on_ab]
    steps = [
        (c, base, par[class_of[join[0][c]]], par[class_of[join[base][c]]])
        for c, base in [(c, 1) for c in off_ab]
        + [(c, off_ab[0]) for c in on_ab if c not in (0, 1)]
    ]

    def complete(a2, b2):
        image = [-1] * n
        image[0], image[1] = a2, b2
        for c, base, row_a, row_base in steps:
            c2 = meet[row_a[a2]][row_base[image[base]]]
            if c2 is None:
                return None
            image[c] = c2
        return tuple(image)

    return complete


def dilations_oracle(plane):
    """Every dilation by two-point determination: each candidate pair of
    images (f(0), f(1)) on a line parallel to join(0, 1) is extended by
    intersecting parallels and tested, none composed."""
    partition = parallel_partition(plane)
    line_ab = plane.join_table()[0][1]
    complete = candidate_builder(plane)
    found = []
    for m in partition.classes[partition.class_of[line_ab]]:
        for a2 in plane.lines[m]:
            for b2 in plane.lines[m]:
                image = complete(a2, b2) if a2 != b2 else None
                f = None if image is None else collineation._as_dilation(plane, image)
                if f is not None:
                    found.append(f)
    found.sort(key=lambda f: f.image)
    return found


def cosets_oracle(plane):
    """(Dil_0, representatives) by one test per point, none composed: Dil_0
    is every candidate (0, b2) that passes, and for each point a2 != 0 the
    candidates (a2, b2) are tried until one passes, the translation
    candidate first."""
    join, par = plane.join_table(), plane.parallel_table()
    meet, class_of = plane.meet_table(), parallel_partition(plane).class_of
    line_ab = join[0][1]
    c0 = next(c for c in range(plane.num_points) if c not in plane.lines[line_ab])
    complete = candidate_builder(plane)

    def parallel(p, q, through):
        return par[class_of[join[p][q]]][through]

    def passing(a2, b2s):
        for b2 in b2s:
            image = complete(a2, b2) if a2 != b2 else None
            f = None if image is None else collineation._as_dilation(plane, image)
            if f is not None:
                yield f

    stabiliser = list(passing(0, plane.lines[line_ab]))
    representatives = []
    for a2 in range(1, plane.num_points):
        m = parallel(0, 1, a2)
        if m == line_ab:
            t1 = meet[parallel(c0, 1, meet[parallel(0, c0, a2)][parallel(0, 1, c0)])][line_ab]
        else:
            t1 = meet[m][parallel(0, a2, 1)]
        f = next(passing(a2, [t1, *(b2 for b2 in plane.lines[m] if b2 != t1)]), None)
        if f is not None:
            representatives.append(f)
    return stabiliser, representatives


def kind_oracle(plane, image):
    """The classify kind the oracles call for, translations and dilations merged."""
    if not collineation_oracle(plane, image):
        return "general"
    if not dilation_oracle(plane, image):
        return "collineation"
    return "dilation"


def trace_oracle(plane, f, p):
    """The line through p and f(p), found among the lines on p; None when
    f fixes p."""
    q = f.image[p]
    if q == p:
        return None
    (line,) = [l for l in plane.lines_through[p] if q in plane.lines[l]]
    return line


def trace_direction_oracle(plane, f):
    """The parallel class of every trace of a translation, compared point
    by point; None for the identity, whose direction is undefined."""
    if f.kind != "translation":
        raise NotTranslation(f"direction requires a translation, got kind {f.kind!r}")
    if f.is_identity:
        return None
    class_of = parallel_partition(plane).class_of
    classes = {class_of[trace_oracle(plane, f, p)] for p in range(plane.num_points)}
    assert len(classes) == 1, f"traces fall into {len(classes)} parallel classes"
    return classes.pop()


def normal_oracle(g, dilations):
    """The definition: every conjugate d^-1.t.d, built point by point, is listed."""
    for di, delta in enumerate(dilations):
        inv = [0] * len(delta.image)
        for p, q in enumerate(delta.image):
            inv[q] = p
        inv_t = tuple(inv)
        for si in range(g.order):
            conj = compose_images(inv_t, compose_images(g.elements[si].image, delta.image))
            if g.index_of(conj) is None:
                return CheckResult("normal_in_dilations", False, (di, si))
    return CheckResult("normal_in_dilations", True)


def direction_oracle(g, dilations):
    """The definition: every conjugate is listed and keeps its direction."""
    for di, delta in enumerate(dilations):
        inv = [0] * len(delta.image)
        for p, q in enumerate(delta.image):
            inv[q] = p
        inv_t = tuple(inv)
        for si in range(1, g.order):
            conj = compose_images(inv_t, compose_images(g.elements[si].image, delta.image))
            ci = g.index_of(conj)
            if ci is None:
                return CheckResult("conjugation_direction", False, (di, si))
            if ci != 0 and g.direction_of[ci] != g.direction_of[si]:
                return CheckResult("conjugation_direction", False, (di, si))
    return CheckResult("conjugation_direction", True)


def composition_direction_oracle(g):
    """The all-pairs scan: every two translations i, j >= 1 of one
    direction compose to the identity or into that direction."""
    for i in range(1, g.order):
        for j in range(1, g.order):
            if g.direction_of[i] != g.direction_of[j]:
                continue
            k = g.cayley[j][i]
            if k != 0 and g.direction_of[k] != g.direction_of[i]:
                return CheckResult("composition_direction", False, (i, j))
    return CheckResult("composition_direction", True)


def parallel_oracle(plane, l, m):
    """The definition: two lines are parallel when they coincide or share no point."""
    return l == m or plane.lines[l].isdisjoint(plane.lines[m])


def parallel_through_oracle(plane, l, p):
    """The definition: l when p lies on it, else the line through p missing l."""
    if p in plane.lines[l]:
        return l
    (m,) = [m for m in plane.lines_through[p] if plane.lines[m].isdisjoint(plane.lines[l])]
    return m


def partition_oracle(plane):
    """The parallel classes by union-find over every pair of disjoint
    lines, numbered by their smallest line id, then audited: every pair
    inside a class must itself be parallel."""
    nl = plane.num_lines
    parent = list(range(nl))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for l in range(nl):
        for m in range(l + 1, nl):
            if plane.lines[l].isdisjoint(plane.lines[m]):
                union(l, m)

    groups = {}
    for l in range(nl):
        groups.setdefault(find(l), []).append(l)
    classes = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    class_of = [0] * nl
    for cid, members in enumerate(classes):
        for l in members:
            class_of[l] = cid
        for l, m in itertools.combinations(members, 2):
            assert parallel_oracle(plane, l, m), f"lines {l} and {m} share a class but are not parallel"
    return tuple(class_of), classes


def axioms_oracle(plane):
    """The definitions: per point pair the list of lines on both, per point
    and line off it the list of lines on the point missing the line, and
    a point triple on no common line."""
    n = plane.num_points
    unique_join = AxiomCheck(True)
    for p, q in itertools.combinations(range(n), 2):
        joins = [lid for lid in plane.lines_through[p] if q in plane.lines[lid]]
        if len(joins) != 1:
            unique_join = AxiomCheck(False, (p, q, len(joins)))
            break
    unique_parallel = AxiomCheck(True)
    for p, (lid, pts) in itertools.product(range(n), enumerate(plane.lines)):
        if p not in pts:
            parallels = [m for m in plane.lines_through[p] if plane.lines[m].isdisjoint(pts)]
            if len(parallels) != 1:
                unique_parallel = AxiomCheck(False, (p, lid, len(parallels)))
                break
    return AxiomReport(unique_join, unique_parallel, triangle_oracle(plane))


def triangle_oracle(plane):
    """The definition: a point triple on no common line, scanned triple by triple."""
    for triple in itertools.combinations(range(plane.num_points), 3):
        if not any(set(triple) <= pts for pts in plane.lines):
            return AxiomCheck(True)
    return AxiomCheck(False, ("no non-collinear point triple",))


def cayley_oracle(translations):
    """The all-pairs table: every composite built point by point and looked
    up by its whole image; NotClosed names the first pair not listed, or
    two elements with one image."""
    ordered = sorted(translations, key=lambda f: f.image)
    for i in range(1, len(ordered)):
        if ordered[i].image == ordered[i - 1].image:
            raise NotClosed(f"elements {i - 1} and {i} are the same translation")
    lookup = {f.image: i for i, f in enumerate(ordered)}
    table = []
    for i, f in enumerate(ordered):
        row = []
        for j, h in enumerate(ordered):
            k = lookup.get(compose_images(f.image, h.image))
            if k is None:
                raise NotClosed(f"composite of elements {i} and {j} is not a listed translation")
            row.append(k)
        table.append(tuple(row))
    return tuple(table)


def raised(fn, *args):
    """fn's result, or the class and message of the package error it raised."""
    try:
        return fn(*args)
    except AffinePlaneError as exc:
        return type(exc), str(exc)


def meet_oracle(plane, l, m):
    common = plane.lines[l] & plane.lines[m]
    if not common:
        return None
    (point,) = common
    return point


def assert_conjugation_verdicts_agree(g, dilations):
    results = check_conjugation(g, dilations)
    assert results == (normal_oracle(g, dilations), direction_oracle(g, dilations))
    assert check_normal_in_dilations(g, dilations) == results[0]
    assert check_conjugation_direction(g, dilations) == results[1]
    return results


def assert_endomorphism_verdicts_agree(g, tables):
    """Fresh maps each time, so no memoized verdict is reused."""
    verdicts = []
    for table in tables:
        local = is_endomorphism(g, GroupSelfMap(tuple(table)))
        assert local == endomorphism_oracle(g, table), table
        verdicts.append(local)
    return verdicts


def assert_dilation_verdicts_agree(plane, images):
    """classify against the oracles; for a dilation, also its translation
    verdict (no fixed point, or the identity) and its direction against
    trace_direction_oracle, which compares the traces point by point."""
    kinds = []
    for image in images:
        assert is_collineation(plane, image) == collineation_oracle(plane, image)
        assert is_dilation(plane, image) == dilation_oracle(plane, image)
        f = classify(plane, image)
        kind = "dilation" if f.kind == "translation" else f.kind
        assert kind == kind_oracle(plane, image), image
        if kind == "dilation":
            fixed = sum(p == q for p, q in enumerate(image))
            assert (f.kind == "translation") == (fixed in (0, len(image))), image
        if f.kind == "translation":
            assert f.direction == trace_direction_oracle(plane, f), image
        kinds.append(kind)
    return kinds


def point_map(p, fn):
    """Point map of AG(2,p) for (x, y) -> fn(x, y), coordinates taken mod p."""
    image = [0] * (p * p)
    for x in range(p):
        for y in range(p):
            u, w = fn(x, y)
            image[x * p + y] = (u % p) * p + w % p
    return tuple(image)


def affine_map(p, matrix, shift):
    """Point map of AG(2,p) for (x, y) -> matrix.(x, y) + shift."""
    (a, b), (c, d) = matrix
    return point_map(p, lambda x, y: (a * x + b * y + shift[0], c * x + d * y + shift[1]))


class TestEndomorphismOracle:
    def test_every_table_on_the_klein_group(self, groups):
        g = groups[2]
        verdicts = assert_endomorphism_verdicts_agree(
            g, itertools.product(range(4), repeat=4)
        )
        assert len(verdicts) == 256
        assert sum(verdicts) == 16

    def test_every_generator_image_candidate_on_ag23(self, groups):
        g = groups[3]
        words = element_words(g)
        tables = [
            extend_along_words(g, words, images)
            for images in itertools.product(range(g.order), repeat=len(generators(g)))
        ]
        assert len(tables) == 81
        assert_endomorphism_verdicts_agree(g, tables)

    def test_random_tables_fixing_the_identity_on_ag23(self, groups, endomorphisms):
        g = groups[3]
        rng = random.Random(20200320)
        tables = [[0] + [rng.randrange(9) for _ in range(8)] for _ in range(2000)]
        # near misses: an endomorphism with one non-identity image changed
        for alpha in endomorphisms[3]:
            for _ in range(5):
                table = list(alpha.table)
                x = rng.randrange(1, 9)
                table[x] = rng.choice([v for v in range(9) if v != table[x]])
                tables.append(table)
        verdicts = assert_endomorphism_verdicts_agree(g, tables)
        assert not any(verdicts[2000:])

    def test_tables_additive_along_one_element_on_ag23(self, groups):
        # t[s.x] = t[s].t[x] for one s only: the generator identity must be
        # tested at every generator, and these tables pass it at some
        g = groups[3]
        for s in range(1, g.order):
            cosets, seen = [], set()
            for x in range(g.order):
                if x not in seen:
                    orbit = [x]
                    while g.cayley[s][orbit[-1]] != x:
                        orbit.append(g.cayley[s][orbit[-1]])
                    seen.update(orbit)
                    cosets.append(orbit)
            tables = []
            for ts, *reps in itertools.product(range(g.order), repeat=len(cosets)):
                table = [0] * g.order
                for orbit, tx in zip(cosets, [0] + reps):
                    for x in orbit:
                        table[x] = tx
                        tx = g.cayley[ts][tx]
                tables.append(table)
            verdicts = assert_endomorphism_verdicts_agree(g, tables)
            assert (len(tables), sum(verdicts)) == (729, 81)

    def test_every_sum_and_composite_in_end_ag23(self, groups, endomorphisms):
        g = groups[3]
        maps = endomorphisms[3]
        tables = [
            op(g, alpha, beta).table
            for op in (add, compose)
            for alpha in maps
            for beta in maps
        ]
        assert all(assert_endomorphism_verdicts_agree(g, tables))


def hamilton(u, v):
    """Product of two quaternions given as (1, i, j, k) coefficients."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def cyclic(n):
    return table_group(range(n), lambda a, b: (a + b) % n)


# name -> (group, |End|); the plane groups are elementary abelian, where
# every assignment extends, so only these reach the search's reject branch
SMALL_GROUPS = {
    "Z4": (cyclic(4), 4),
    "Z6": (cyclic(6), 6),
    "Z8": (cyclic(8), 8),
    "Z2xZ4": (
        table_group(
            [(a, b) for a in range(2) for b in range(4)],
            lambda u, v: ((u[0] + v[0]) % 2, (u[1] + v[1]) % 4),
        ),
        32,
    ),
    "S3": (
        table_group(itertools.permutations(range(3)), compose_images),
        10,
    ),
    "Q8": (
        table_group(
            [tuple(s * (k == i) for k in range(4)) for i in range(4) for s in (1, -1)],
            hamilton,
        ),
        28,
    ),
}


def two_adic_cyclic(n):
    """(elements, Z_n) with elements listed by descending 2-adic valuation."""
    elements = sorted(range(n), key=lambda x: (-(x & -x) if x else -2 * n, x))
    return elements, table_group(elements, lambda a, b: (a + b) % n)


def plane_group(plane):
    """The translation group of a plane."""
    return build_group(plane, [f for f in enumerate_dilations(plane) if f.kind == "translation"])


def greedy_generators_oracle(g):
    """The definition: the lowest index outside the saturated span, repeated."""
    gens, spanned = [], {0}
    for i in range(1, g.order):
        if i not in spanned:
            gens.append(i)
            spanned = span(g, gens)
    return gens


def left_coset(g, c, subgroup):
    return frozenset(g.cayley[c][h] for h in subgroup)


def assert_chain_agrees(g):
    """generator_chain's generators are the greedy ones, and its levels are
    what claims 1, 3 and 4 of enumerate_endomorphisms rest on.  Level k
    extends H = span(gens[:k]) to K = span(gens[:k+1]), and:
    - the representatives, 0 and the tree edges' targets, lie one in each
      left coset c.H of K, and the first tree edge is (gens[k], k, 0);
    - the tree edges and the relators list every edge (j, c), c a
      representative and j <= k, once, except (j < k, c = 0), and
      gens[j].c = c'.h with c' a representative and h in H;
    - the fills list every element of K outside H that is no
      representative once, as z = c.h with c a representative and h in H;
    - each entry is set after the entries it reads: a tree edge reads a
      representative set before it, a relator or fill only
      representatives and H, and the fills follow the tree edges;
    - the union of the levels is G."""
    gens, levels = generator_chain(g)
    assert list(gens) == generators(g) == greedy_generators_oracle(g)
    assert len(levels) == len(gens)
    old = {0}
    for k, (tree, relators, fills) in enumerate(levels):
        new = span(g, gens[: k + 1])
        assert old == span(g, gens[:k]) < new
        assert tree[0] == (gens[k], k, 0)
        reps, filled = [0], set(old)
        for c2, j, c in tree:
            assert j <= k and c in reps and c2 == g.cayley[gens[j]][c]
            assert c2 not in filled
            reps.append(c2)
            filled.add(c2)
        cosets = {left_coset(g, c, old) for c in new}
        assert {left_coset(g, c, old) for c in reps} == cosets and len(reps) == len(cosets)
        edges = [(j, c) for _, j, c in tree]
        for j, c, c2, h in relators:
            assert c in reps and c2 in reps and h in old
            assert g.cayley[gens[j]][c] == g.cayley[c2][h]
            edges.append((j, c))
        assert sorted(edges) == sorted(
            (j, c) for c in reps for j in range(k + 1) if c != 0 or j == k
        )
        for z, c, h in fills:
            assert c in reps and h in old and z == g.cayley[c][h]
            assert z not in filled
            filled.add(z)
        assert filled == new
        old = new
    assert old == set(range(g.order))


def level_sizes(g):
    return [tuple(map(len, level)) for level in generator_chain(g)[1]]


class TestGeneratorChainOracle:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ag2p(self, p):
        assert_chain_agrees(plane_group(build_prime_plane(p)))

    def test_ag24(self, ag24):
        assert_chain_agrees(plane_group(ag24))

    @pytest.mark.parametrize("document", [ag29_document, hall9_document])
    def test_order_nine(self, document):
        plane = load_plane(document())
        assert verify_axioms(plane).all_pass
        assert_chain_agrees(plane_group(plane))

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_small_groups(self, name):
        assert_chain_agrees(SMALL_GROUPS[name][0])

    @pytest.mark.parametrize("n", [8, 16])
    def test_two_adic_cyclic_orderings(self, n):
        assert_chain_agrees(two_adic_cyclic(n)[1])

    def test_trivial_group(self, p2):
        g = build_group(p2, [identity_map(p2)])
        assert generator_chain(g) == ((), ())

    def test_s3_has_a_level_over_a_subgroup_that_is_not_normal(self):
        # H_1 = <a transposition> has order 2 and index 3 in H_2 = S_3, and
        # is not normal: the left-coset levels do not rest on normality
        g, _ = SMALL_GROUPS["S3"]
        gens, _ = generator_chain(g)
        subgroups = [span(g, gens[:k]) for k in range(len(gens) + 1)]
        assert [len(h) for h in subgroups] == [1, 2, 6]
        h, k = subgroups[1], subgroups[2]
        assert any(g.cayley[g.cayley[x][y]][g.inverse[x]] not in h for x in k for y in h)
        assert level_sizes(g) == [(1, 1, 0), (2, 3, 2)]

    # the per-level work of the End search: (tree edges, relators, fills);
    # a node at level k tests one relator per coset edge, not every
    # generator pair of the level's new elements
    def test_level_sizes_on_ag24(self, ag24):
        assert level_sizes(plane_group(ag24)) == [(1, 1, 0), (1, 2, 1), (1, 3, 3), (1, 4, 7)]

    def test_level_sizes_on_ag27(self):
        assert level_sizes(plane_group(build_prime_plane(7))) == [(6, 1, 0), (6, 7, 36)]

    def test_computed_once(self, groups):
        g = groups[3]
        assert generator_chain(g) is generator_chain(g)


def assert_increasing_leaves(g, directions=None):
    """The raw leaf stream of the chain search is strictly increasing by
    table (claim 4 of enumerate_endomorphisms): no sort is needed."""
    leaves = list(_chain_search(g, directions))
    assert all(a < b for a, b in zip(leaves, leaves[1:]))
    return leaves


def count_by_path(monkeypatch, g):
    """(count_endomorphisms(g), walked): walked says whether the count
    entered _chain_search, the End search, to walk its leaves."""
    walks = []
    chain_search = endo._chain_search
    with monkeypatch.context() as m:
        m.setattr(endo, "_chain_search", lambda *args: walks.append(args) or chain_search(*args))
        count = count_endomorphisms(g)
    return count, bool(walks)


def assert_same_endomorphism_lists(g, monkeypatch, walks=False):
    """The chain search lists what the product-and-test oracle lists, and
    count_endomorphisms counts it: from element orders, entering no
    search, on an abelian group, else (walks) by the leaves of the search."""
    chain = enumerate_endomorphisms(g)
    oracle = endomorphisms_oracle(g)
    assert [a.table for a in chain] == [a.table for a in oracle]
    assert all(is_endomorphism(g, a) for a in chain)
    assert assert_increasing_leaves(g) == [a.table for a in chain]
    assert check_abelian(g).passed is not walks
    assert count_by_path(monkeypatch, g) == (len(oracle), walks)
    return chain


class TestEndomorphismSearchOracle:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ag2p(self, p, monkeypatch):
        plane = build_prime_plane(p)
        translations = [f for f in enumerate_dilations(plane) if f.kind == "translation"]
        chain = assert_same_endomorphism_lists(build_group(plane, translations), monkeypatch)
        assert len(chain) == p**4

    def test_ag24(self, ag24, monkeypatch):
        translations = [f for f in enumerate_dilations(ag24) if f.kind == "translation"]
        chain = assert_same_endomorphism_lists(build_group(ag24, translations), monkeypatch)
        assert len(chain) == 2**16

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_small_groups(self, name, monkeypatch):
        # S3 and Q8 are the groups that are not abelian: the closed form
        # does not apply, and the count walks every leaf of the search
        g, count = SMALL_GROUPS[name]
        chain = assert_same_endomorphism_lists(g, monkeypatch, walks=name in ("S3", "Q8"))
        assert len(chain) == count

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_cyclic_groups_with_one_generator_per_level(self, n, monkeypatch):
        # generators() picks n/2, n/4, ..., 1: a chain of log2(n) levels,
        # each of index 2, and every level's relators reject images; End(Z_n)
        # is x -> a.x.  The product-and-test oracle would try n^log2(n)
        # assignments, 32^5 for n = 32, so that list is the oracle here
        elements, g = two_adic_cyclic(n)
        assert len(generators(g)) == n.bit_length() - 1
        index = {e: i for i, e in enumerate(elements)}
        expected = sorted(tuple(index[a * e % n] for e in elements) for a in range(n))
        assert [a.table for a in enumerate_endomorphisms(g)] == expected
        assert assert_increasing_leaves(g) == expected
        assert count_by_path(monkeypatch, g) == (n, False)

    @pytest.mark.parametrize("name", ["Z4", "S3"])
    def test_small_groups_against_every_table(self, name):
        g, _ = SMALL_GROUPS[name]
        tables = [a.table for a in enumerate_endomorphisms(g)]
        assert set(tables) == brute_force_endomorphisms(g)
        assert len(set(tables)) == len(tables)

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_count_at_the_group_bound(self, name):
        """The CLI has no group bound of its own: |Tr| divides q^2, so the
        order bound caps the group at max_order^2, and a group within it is
        counted in full, with no check of its order before the search."""
        g, count = SMALL_GROUPS[name]
        assert not hasattr(cli, "_check_group_bound")
        assert g.order <= cli.DEFAULT_MAX_ORDER ** 2
        assert count_endomorphisms(g) == count

    def test_trivial_group(self, p2, monkeypatch):
        g = build_group(p2, [identity_map(p2)])
        assert assert_increasing_leaves(g) == [(0,)]
        assert len(assert_same_endomorphism_lists(g, monkeypatch)) == 1


def gcd_product_oracle(orders):
    """|End(Z_d1 x ... x Z_dn)|, the product of gcd(d_i, d_j) over all
    pairs (i, j) (Hillar and Rhea, "Automorphisms of finite abelian
    groups", Amer. Math. Monthly 114, 2007)."""
    return math.prod(math.gcd(a, b) for a in orders for b in orders)


def shuffled_product(orders, seed):
    """Z_d1 x ... x Z_dn with the identity first and the other elements in
    an order shuffled by seed, so the greedy generators need not be a
    basis."""
    identity, *rest = itertools.product(*[range(d) for d in orders])
    random.Random(seed).shuffle(rest)
    return table_group(
        [identity, *rest], lambda u, v: tuple((a + b) % d for a, b, d in zip(u, v, orders))
    )


class TestEndomorphismCountOracle:
    """count_endomorphisms against the closed form of |End| of a finite
    abelian group, which lists nothing: Z4^3 has 4^9 endomorphisms and
    the translation groups of order 9 have 3^16.  The products of more
    than one prime take the count's loop over the primes of |G|."""

    @pytest.mark.parametrize(
        "orders",
        [(4, 4, 4), (2, 4, 8), (9, 9), (3, 9), (2, 16), (12,), (6, 2), (2, 3, 4), (4, 6, 9)],
        ids=["Z4^3", "Z2xZ4xZ8", "Z9^2", "Z3xZ9", "Z2xZ16", "Z12", "Z6xZ2", "Z2xZ3xZ4", "Z4xZ6xZ9"],
    )
    def test_shuffled_products(self, monkeypatch, orders):
        for seed in range(6):
            g = shuffled_product(orders, seed)
            count, walked = count_by_path(monkeypatch, g)
            assert (count, walked) == (gcd_product_oracle(orders), False)
            if count < 2**13:
                assert len(enumerate_endomorphisms(g)) == count

    @pytest.mark.parametrize("document", [ag29_document, hall9_document])
    def test_order_nine(self, monkeypatch, document):
        plane = load_plane(document())
        assert verify_axioms(plane).all_pass
        count, walked = count_by_path(monkeypatch, plane_group(plane))
        assert (count, walked) == (gcd_product_oracle((3,) * 4), False)
        assert count == 3**16


def assert_same_tp_lists(plane, g):
    tp = enumerate_tp_endomorphisms(plane, g)
    assert [a.table for a in tp] == [a.table for a in tp_endomorphisms_oracle(plane, g)]
    assert all(is_endomorphism(g, a) and is_trace_preserving(plane, g, a) for a in tp)
    assert assert_increasing_leaves(g, g.direction_of) == [a.table for a in tp]
    return tp


class TestTracePreservingSearchOracle:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ag2p(self, p):
        plane = build_prime_plane(p)
        translations = [f for f in enumerate_dilations(plane) if f.kind == "translation"]
        assert len(assert_same_tp_lists(plane, build_group(plane, translations))) == p

    def test_ag24(self, ag24):
        translations = [f for f in enumerate_dilations(ag24) if f.kind == "translation"]
        assert len(assert_same_tp_lists(ag24, build_group(ag24, translations))) == 4

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_small_groups_without_directions(self, name):
        # no element has a direction, so every endomorphism preserves them
        g, count = SMALL_GROUPS[name]
        assert len(assert_same_tp_lists(None, g)) == count


def closed_oracle(maps, op):
    """The all-pairs scan: every product of two listed maps is listed."""
    tables = {a.table for a in maps}
    return all(op(a, b).table in tables for a in maps for b in maps)


def outcome(fn, *args):
    """fn's result, or the class of the package error it raised."""
    try:
        return fn(*args)
    except AffinePlaneError as exc:
        return type(exc)


def assert_end_closure_settled(g, endos):
    """verify-all's verdicts on End's closure theorems, check_abelian for
    sums and True for composites (proof in check_abelian), are the
    all-pairs scan's over End; returns the verdict for sums."""
    assert closed_oracle(endos, partial(compose, g)) is True
    sums = closed_oracle(endos, partial(add, g))
    assert sums is check_abelian(g).passed
    return sums


class TestClosureOracle:
    @pytest.mark.parametrize("p", [2, 3])
    def test_end_and_tp_of_ag2p(self, planes, groups, endomorphisms, tp_endomorphisms, p):
        g, tp = groups[p], tp_endomorphisms[p]
        assert assert_end_closure_settled(g, endomorphisms[p]) is True
        # verify-all reads the TP closure theorems from the ring's scans
        axioms = check_ring_axioms(planes[p], g, tp).axioms
        assert closed_oracle(tp, partial(add, g)) is axioms["add_closure"][0] is True
        assert closed_oracle(tp, partial(compose, g)) is axioms["mul_closure"][0] is True

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_small_groups(self, name):
        # in the non-abelian groups a pointwise sum can leave End
        g, _ = SMALL_GROUPS[name]
        sums = assert_end_closure_settled(g, enumerate_endomorphisms(g))
        assert sums is (name not in ("S3", "Q8"))


class TestDilationOracle:
    @pytest.mark.parametrize("p,dilations", [(2, 4), (3, 18)])
    def test_every_collineation(self, planes, p, dilations):
        plane = planes[p]
        images = collineations_oracle(plane)
        kinds = assert_dilation_verdicts_agree(plane, images)
        assert kinds.count("dilation") == dilations

    def test_random_permutations_of_ag25(self, p5):
        rng = random.Random(20200320)
        images = []
        for _ in range(300):
            perm = list(range(25))
            rng.shuffle(perm)
            images.append(tuple(perm))
        assert set(assert_dilation_verdicts_agree(p5, images)) == {"general"}

    def test_affine_maps_of_ag25(self, p5):
        swap = affine_map(5, ((0, 1), (1, 0)), (0, 0))
        stretch = affine_map(5, ((1, 0), (0, 2)), (0, 0))
        shear = affine_map(5, ((1, 1), (0, 1)), (3, 4))
        homothety = affine_map(5, ((3, 0), (0, 3)), (1, 2))
        rng = random.Random(20200320)
        maps = [swap, stretch, shear, homothety]
        while len(maps) < 60:
            matrix = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
            if (matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]) % 5:
                maps.append(affine_map(5, matrix, (rng.randrange(5), rng.randrange(5))))
        kinds = assert_dilation_verdicts_agree(p5, maps)
        assert kinds[:4] == ["collineation", "collineation", "collineation", "dilation"]
        assert set(kinds) == {"collineation", "dilation"}

    def test_every_dilation_of_ag25(self, p5, dilations):
        images = [f.image for f in dilations[5]]
        assert set(assert_dilation_verdicts_agree(p5, images)) == {"dilation"}

    @pytest.mark.parametrize(
        "make,q,dilations",
        [
            (partial(build_prime_plane, 2), 2, 4),
            (partial(build_prime_plane, 3), 3, 18),
            (partial(build_prime_plane, 7), 7, 294),
            (lambda: load_plane(ag24_document()), 4, 48),
            (lambda: load_plane(ag29_document()), 9, 648),
            (lambda: load_plane(hall9_document()), 9, 162),
        ],
        ids=["AG(2,2)", "AG(2,3)", "AG(2,7)", "AG(2,4)", "AG(2,9)", "Hall(9)"],
    )
    def test_every_dilation_and_its_direction(self, make, q, dilations):
        plane = make()
        assert verify_axioms(plane).all_pass
        found = enumerate_dilations(plane)
        assert set(assert_dilation_verdicts_agree(plane, [f.image for f in found])) == {
            "dilation"
        }
        assert len(found) == dilations
        assert sum(f.kind == "translation" for f in found) == q * q

    @pytest.mark.parametrize(
        "make",
        [partial(build_prime_plane, 3), lambda: load_plane(hall9_document())],
        ids=["AG(2,3)", "Hall(9)"],
    )
    def test_maps_that_are_not_injective(self, make):
        plane = make()
        assert verify_axioms(plane).all_pass
        n = plane.num_points
        shift = next(f for f in enumerate_dilations(plane) if f.kind == "translation"
                     and not f.is_identity).image
        merged = list(shift)
        merged[0] = shift[1]  # points 0 and 1 share an image, the rest is a translation
        images = [(0,) * n, tuple(merged)]
        assert assert_dilation_verdicts_agree(plane, images) == ["general", "general"]

    @pytest.mark.parametrize(
        "make",
        [partial(build_prime_plane, 3), lambda: load_plane(hall9_document())],
        ids=["AG(2,3)", "Hall(9)"],
    )
    def test_maps_off_the_point_set(self, make):
        plane = make()
        assert verify_axioms(plane).all_pass
        n = plane.num_points
        shift = next(f for f in enumerate_dilations(plane) if f.kind == "translation"
                     and not f.is_identity).image
        images = [shift[:-1] + (n,), shift[:-1] + (-1,), (-1,) + tuple(range(1, n))]
        assert assert_dilation_verdicts_agree(plane, images) == ["general"] * 3


class TestConjugationOracle:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_dilations_of_ag2p(self, groups, dilations, p):
        if p == 7:
            plane = build_prime_plane(7)
            dils = enumerate_dilations(plane)
            g = build_group(plane, [f for f in dils if f.kind == "translation"])
        else:
            g, dils = groups[p], dilations[p]
        normal, direction = assert_conjugation_verdicts_agree(g, dils)
        assert normal.passed and direction.passed

    @pytest.mark.parametrize("name", ["AG(2,4)", "AG(2,9)", "Hall(9)"])
    def test_dilations_of_order_4_and_9_planes(self, name):
        plane = verified_plane(name)
        dils = enumerate_dilations(plane)
        g = build_group(plane, [f for f in dils if f.kind == "translation"])
        normal, direction = assert_conjugation_verdicts_agree(g, dils)
        assert normal.passed and direction.passed

    def test_inverse_built_once_per_map(self, planes, groups, dilations, monkeypatch):
        # every map, whatever its kind, has its generators conjugated by image
        inverses = []
        real = transgroup._inverse
        monkeypatch.setattr(transgroup, "_inverse", lambda d: inverses.append(d) or real(d))
        plane, g, dils = planes[3], groups[3], dilations[3]
        check_conjugation(g, dils)
        assert inverses == [f.image for f in dils]
        others = [classify(plane, point_map(3, lambda x, y: (y, x))),
                  classify(plane, (1, 0) + tuple(range(2, 9)))]
        assert [f.kind for f in others] == ["collineation", "general"]
        inverses.clear()
        normal, direction = check_conjugation(g, dils + others)
        assert (normal.witness, direction.witness) == ((19, 1), (18, 1))
        assert inverses == [f.image for f in dils + others]

    def test_kind_is_not_trusted(self, groups):
        """A permutation labelled "dilation" gets the definition's verdicts:
        its generators' conjugates are looked up by their whole image, not
        by the two-point key that only names a dilation."""
        g = groups[3]
        mislabelled = ClassifiedMap((7, 5, 0, 3, 1, 8, 4, 2, 6), "dilation", frozenset())
        normal, _ = assert_conjugation_verdicts_agree(g, [mislabelled])
        assert normal.witness == (0, 1)
        rng = random.Random(20200320)
        for _ in range(2000):
            image = list(range(9))
            rng.shuffle(image)
            assert_conjugation_verdicts_agree(
                g, [ClassifiedMap(tuple(image), "dilation", frozenset())])

    @pytest.mark.parametrize("p", [3, 5])
    def test_corrupted_dilation_lists(self, planes, groups, dilations, p):
        # Element i of the group is the shift by the vector with id i, so
        # 1 is (0,1), p is (1,0) and p + 1 is (1,1).  The swap and the
        # stretch are collineations that normalize the translations but
        # move directions; the other maps are no collineations, and each
        # conjugates some translation off the list.  None is a dilation,
        # so each is conjugated point by point.
        plane, g, dils = planes[p], groups[p], dilations[p]
        rng = random.Random(20200320)
        shuffled = list(range(p * p))
        rng.shuffle(shuffled)
        maps = {
            # name: (map, kind, normal witness si, direction witness si)
            "swap": (point_map(p, lambda x, y: (y, x)), "collineation", None, 1),
            "stretch": (point_map(p, lambda x, y: (x, 2 * y)), "collineation", None, p + 1),
            "shear_sq": (point_map(p, lambda x, y: (x, y + x * x)), "general", p, p),
            "flip_sq": (point_map(p, lambda x, y: (y, x + y * y)), "general", p, 1),
            "transposition": ((1, 0) + tuple(range(2, p * p)), "general", 1, 1),
            "shuffled": (tuple(shuffled), "general", 1, 1),
        }
        classified = {name: classify(plane, m[0]) for name, m in maps.items()}
        assert {name: f.kind for name, f in classified.items()} == {
            name: m[1] for name, m in maps.items()
        }

        def insert(names, at):
            return list(dils[:at]) + [classified[n] for n in names] + list(dils[at:])

        for name, (_, _, normal_si, direction_si) in maps.items():
            for at in (0, len(dils) // 2, len(dils)):
                normal, direction = assert_conjugation_verdicts_agree(g, insert([name], at))
                assert normal.witness == (None if normal_si is None else (at, normal_si))
                assert direction.witness == (at, direction_si)
        at = len(dils) // 2
        for first, second in [("stretch", "flip_sq"), ("flip_sq", "stretch"),
                              ("swap", "shear_sq"), ("shear_sq", "swap")]:
            normal, direction = assert_conjugation_verdicts_agree(g, insert([first, second], at))
            assert direction.witness == (at, maps[first][3])
            assert normal.witness[0] == at + (maps[first][2] is None)

    @pytest.mark.parametrize("name,witness",
                             [("AG(2,4)", (1, 1)), ("AG(2,9)", (2, 1)), ("Hall(9)", None)])
    def test_subgroup_spanned_by_two_directions(self, name, witness, monkeypatch):
        """Dil_0 and the representatives on the subgroup of Tr that the
        first two non-identity translations of different directions span.
        A dilation can conjugate it off the list; then the scan stops
        there, and that dilation, and no other, is conjugated point by
        point on every element."""
        plane = verified_plane(name)
        stabiliser, representatives = collineation.dilation_cosets(plane)
        dils = stabiliser + representatives
        full = build_group(plane, [f for f in enumerate_dilations(plane) if f.kind == "translation"])
        second = next(i for i in range(2, full.order) if full.direction_of[i] != full.direction_of[1])
        g = build_group(plane, [full.elements[i] for i in sorted(span(full, [1, second]))])
        assert g.order == len(plane.lines[0]) < full.order
        normal, direction = assert_conjugation_verdicts_agree(g, dils)
        assert normal.witness == direction.witness == witness
        lookups = []
        real = TranslationGroup.index_of
        monkeypatch.setattr(TranslationGroup, "index_of",
                            lambda group, image: lookups.append(image) or real(group, image))
        check_conjugation(g, dils)
        rank = len(generators(g))
        if witness is None:
            assert len(lookups) == rank * len(dils)
        else:
            assert dils[witness[0]].kind == "dilation"
            assert len(lookups) == rank * (witness[0] + 1) + g.order

    @pytest.mark.parametrize("fn", [lambda x, y: (y, x), lambda x, y: (x, 2 * y)],
                             ids=["swap", "stretch"])
    def test_failing_generating_set_rescans_the_composed_list(self, planes, groups, fn):
        """A collineation fixing 0 that is no dilation, put in Dil_0: it
        normalizes the translations but moves directions.  The verdicts on
        the generating set are those of check_conjugation on every f.s,
        classified, sorted; the witness indexes the list it was given."""
        plane, g = planes[3], groups[3]
        stabiliser, representatives = collineation.dilation_cosets(plane)
        extra = classify(plane, point_map(3, fn))
        assert (extra.kind, extra.image[0]) == ("collineation", 0)
        stabiliser.append(extra)
        composed = sorted(
            (classify(plane, compose_images(f.image, s.image))
             for f in [identity_map(plane), *representatives] for s in stabiliser),
            key=lambda f: f.image,
        )
        normal, direction = assert_conjugation_verdicts_agree(g, composed)
        assert normal.passed and not direction.passed
        verdicts = check_conjugation(g, stabiliser + representatives)
        assert [c.passed for c in verdicts] == [normal.passed, direction.passed]


def with_direction(g, k, d):
    """g with the direction of element k read as d."""
    direction_of = list(g.direction_of)
    direction_of[k] = d
    return TranslationGroup(g.elements, g.cayley, g.inverse, tuple(direction_of))


def with_entry(g, j, i, k):
    """g with the Cayley entry cayley[j][i] read as k."""
    cayley = [list(row) for row in g.cayley]
    cayley[j][i] = k
    return TranslationGroup(g.elements, tuple(map(tuple, cayley)), g.inverse, g.direction_of)


class TestCompositionDirectionOracle:
    """check_composition_direction tries each i against the j of its own
    direction only; the all-pairs scan gives the same verdict and
    witness, also on groups corrupted so that the check fails."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ag2p(self, groups, p):
        verdict = check_composition_direction(groups[p])
        assert verdict == composition_direction_oracle(groups[p]) and verdict.passed

    def test_every_relabelled_element_of_ag23(self, groups):
        g = groups[3]
        for k in range(1, g.order):
            for d in range(4):
                corrupted = with_direction(g, k, d)
                verdict = check_composition_direction(corrupted)
                assert verdict == composition_direction_oracle(corrupted)
                assert verdict.passed is (d == g.direction_of[k])

    def test_random_cayley_entries_of_ag25(self, groups):
        g, rng = groups[5], random.Random(0)
        failed = 0
        for _ in range(200):
            corrupted = with_entry(g, *(rng.randrange(1, g.order) for _ in range(3)))
            verdict = check_composition_direction(corrupted)
            assert verdict == composition_direction_oracle(corrupted)
            failed += not verdict.passed
        assert 0 < failed < 200

    def test_pinned_witnesses_on_ag25(self, groups):
        # 6, 18 and their composite 24 share direction 1, and 6 is the first
        # translation of that direction; 7 has direction 2
        g = groups[5]
        assert [g.direction_of[k] for k in (6, 18, 24, 7)] == [1, 1, 1, 2]
        assert g.cayley[18][6] == 24
        for corrupted in (with_direction(g, 24, 2), with_entry(g, 18, 6, 7)):
            assert check_composition_direction(corrupted) == CheckResult(
                "composition_direction", False, (6, 18)
            ) == composition_direction_oracle(corrupted)


class TestLookupTableOracle:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_parallel_through_every_line_and_point(self, planes, p):
        plane = planes[p]
        par, class_of = plane.parallel_table(), parallel_partition(plane).class_of
        for l in range(plane.num_lines):
            for q in range(plane.num_points):
                m = par[class_of[l]][q]
                assert m == parallel_through_oracle(plane, l, q)
                if q in plane.lines[l]:
                    assert m == l

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_intersect_every_pair_of_lines(self, planes, p):
        plane = planes[p]
        meet = plane.meet_table()
        parallel_pairs = 0
        for l in range(plane.num_lines):
            # a line meets itself in None: the dilation search rejects a
            # candidate whose two parallels coincide
            assert meet[l][l] is None
            for m in range(plane.num_lines):
                if l != m:
                    point = meet[l][m]
                    assert point == meet_oracle(plane, l, m)
                    parallel_pairs += point is None
        # each of the p + 1 classes has p lines, pairwise parallel
        assert parallel_pairs == (p + 1) * p * (p - 1)


PLANE_DOCUMENTS = {
    **{f"AG(2,{p})": partial(lambda p: build_prime_plane(p).to_document(), p) for p in (2, 3, 5, 7)},
    "AG(2,4)": ag24_document,
    "AG(2,9)": ag29_document,
    "Hall(9)": hall9_document,
}
ORDER_3_UP = [name for name in PLANE_DOCUMENTS if name != "AG(2,2)"]
DILATION_PLANES = {
    **PLANE_DOCUMENTS,
    **{f"AG(2,{p})": partial(lambda p: build_prime_plane(p).to_document(), p) for p in (11, 13)},
}


def verified_plane(name):
    plane = load_plane(DILATION_PLANES[name]())
    assert verify_axioms(plane).all_pass
    return plane


def search_verdicts(plane, monkeypatch, search=enumerate_dilations):
    """What search(plane) returns, and each (image, verdict) of _as_dilation
    on a completed candidate that it tests."""
    verdicts = []
    real = collineation._as_dilation

    def recorded(plane, image):
        f = real(plane, image)
        verdicts.append((image, f is not None))
        return f

    with monkeypatch.context() as patch:
        patch.setattr(collineation, "_as_dilation", recorded)
        found = search(plane)
    return found, verdicts


# tests of the search: Dil_0's q - 1 candidates, then one per generator of
# Tr; on AG(2,p^k) and Hall(9) Tr is Z_p^(2k), so q - 1 + 2k
SEARCH_TESTS = {
    "AG(2,2)": 3, "AG(2,3)": 4, "AG(2,5)": 6, "AG(2,7)": 8, "AG(2,4)": 7,
    "AG(2,9)": 12, "Hall(9)": 12, "AG(2,11)": 12, "AG(2,13)": 14,
}


class TestDilationCandidateOracle:
    @pytest.mark.parametrize("name", DILATION_PLANES)
    def test_every_candidate_of_the_dilation_search(self, name, monkeypatch):
        """_as_dilation skips the last class: its verdict on every completed
        candidate of the one-test-per-point search (cosets_oracle) is the
        line-pass oracle's.  A Desarguesian plane of order q passes every
        candidate, so that search tests q - 1 for the stabiliser of 0 and
        one for each other point.  So does every translation plane,
        Hall(9) too: its translation candidate for each point passes."""
        plane = verified_plane(name)
        _, verdicts = search_verdicts(plane, monkeypatch, cosets_oracle)
        q = len(plane.lines[0])
        assert len(verdicts) == q * q + q - 2
        for image, passed in verdicts:
            assert passed == dilation_oracle(plane, image), image

    @pytest.mark.parametrize("name", DILATION_PLANES)
    def test_tests_of_the_search(self, name, monkeypatch):
        """dilation_cosets tests only the points that composition has not
        reached, each candidate one of the oracle's, with its verdict."""
        plane = verified_plane(name)
        _, verdicts = search_verdicts(plane, monkeypatch, collineation.dilation_cosets)
        _, oracle_verdicts = search_verdicts(plane, monkeypatch, cosets_oracle)
        assert len(verdicts) == SEARCH_TESTS[name]
        assert set(verdicts) <= set(oracle_verdicts)

    @pytest.mark.parametrize("point,tests", [(81, 592), (0, 642)])
    def test_dual_hall_cut(self, point, tests, monkeypatch):
        """A cut is no translation plane: where the translation candidate
        fails, the other points of the line are tried."""
        plane = load_plane(dual_hall9_cut(point))
        assert verify_axioms(plane).all_pass
        _, verdicts = search_verdicts(plane, monkeypatch, cosets_oracle)
        assert len(verdicts) == tests
        for image, passed in verdicts:
            assert passed == dilation_oracle(plane, image), image

    @pytest.mark.parametrize("point,tests", [(81, 586), (0, 642)])
    def test_search_tests_on_dual_hall_cut(self, point, tests, monkeypatch):
        """Composition reaches the points of the 9 translations of
        dual_hall9_cut(81), all of one direction, from 2 generators: 6
        tests fewer.  On dual_hall9_cut(0) Tr is trivial and every point
        is tested."""
        plane = load_plane(dual_hall9_cut(point))
        assert verify_axioms(plane).all_pass
        _, verdicts = search_verdicts(plane, monkeypatch, collineation.dilation_cosets)
        _, oracle_verdicts = search_verdicts(plane, monkeypatch, cosets_oracle)
        assert len(verdicts) == tests
        assert set(verdicts) <= set(oracle_verdicts)


def assert_cosets_agree(plane, dilations):
    """dilation_cosets against the one-test-per-point search and against
    dilations, the full list of the oracle: |Dil| from the cosets, Tr from
    the representatives, both conjugation verdicts on the cosets and on the
    smaller generating set the CLI passes, and the composed list."""
    stabiliser, representatives = collineation.dilation_cosets(plane)
    assert (stabiliser, representatives) == cosets_oracle(plane)
    assert collineation.compose_cosets(plane, stabiliser, representatives) == dilations
    assert len(stabiliser) * (1 + len(representatives)) == len(dilations)
    generating = stabiliser + representatives
    translations = [f for f in dilations if f.kind == "translation"]
    assert sorted(f for f in generating if f.kind == "translation") == translations
    g = build_group(plane, translations)
    verdicts = check_conjugation(g, dilations)
    assert check_conjugation(g, generating) == verdicts
    generators = cli._dilation_generators(stabiliser, representatives, g)
    assert check_conjugation(g, generators) == verdicts
    return generators


# the dilations the CLI conjugates by: Dil_0, q - 1 on a Desarguesian plane
# and 2 on Hall(9), and the 2k generators of Tr = Z_p^(2k); every coset
# representative of a translation plane is a translation
CONJUGATION_SET = {
    "AG(2,2)": 3, "AG(2,3)": 4, "AG(2,5)": 6, "AG(2,7)": 8, "AG(2,4)": 7,
    "AG(2,9)": 12, "Hall(9)": 6, "AG(2,11)": 12, "AG(2,13)": 14,
}


class TestDilationSearchOracle:
    @pytest.mark.parametrize("name", DILATION_PLANES)
    def test_planes(self, name):
        plane = verified_plane(name)
        oracle = dilations_oracle(plane)
        assert enumerate_dilations(plane) == oracle
        assert len(assert_cosets_agree(plane, oracle)) == CONJUGATION_SET[name]

    def test_dual_hall_cuts(self, monkeypatch):
        """The 91 cuts of the dual Hall plane: a point at infinity leaves
        (|Dil|, |Tr|) = (72, 9), an affine point (2, 1).  Here, unlike on
        a translation plane, some points are the image of 0 under no
        dilation, so some points have no candidate that passes."""
        sizes = {}
        for point in range(91):
            plane = load_plane(dual_hall9_cut(point))
            assert verify_axioms(plane).all_pass
            found, verdicts = search_verdicts(plane, monkeypatch)
            assert found == dilations_oracle(plane), point
            generators = assert_cosets_agree(plane, found)
            sizes[point] = (len(found), sum(f.kind == "translation" for f in found),
                            len(generators))
            # a subset of the oracle's candidates, each tested once
            assert len(set(image for image, _ in verdicts)) == len(verdicts) <= 648
        # the CLI conjugates by Dil_0, the representatives that are no
        # translations and 2 generators of Tr: on the cuts at 81 and 82,
        # |Dil_0| = 8 and every representative is a translation; on those at
        # 83 to 90, Dil_0 is the identity alone and 63 of 71 are none
        conjugated = {81: 10, 82: 10, **dict.fromkeys(range(83, 91), 66)}
        assert sizes == {point: (72, 9, conjugated[point]) if point >= 81 else (2, 1, 2)
                         for point in range(91)}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["AG(2,9)", "Hall(9)"])
    def test_line_shuffled_planes(self, name, seed):
        """Another line order numbers the classes and orders each line's
        candidates differently; the cosets still agree."""
        plane = load_plane(line_shuffled(DILATION_PLANES[name](), seed))
        assert verify_axioms(plane).all_pass
        assert_cosets_agree(plane, dilations_oracle(plane))

    @pytest.mark.parametrize("p", [17, 23])
    def test_larger_prime_planes(self, p):
        plane = build_prime_plane(p)
        assert verify_axioms(plane).all_pass
        assert collineation.dilation_cosets(plane) == cosets_oracle(plane)


def line_shuffled(document, seed):
    """document with its lines listed in a seeded random order."""
    lines = list(document["lines"])
    random.Random(seed).shuffle(lines)
    return {"points": document["points"], "lines": lines}


def pencil_not_smallest(plane):
    """The classes whose line through point 0 is not their smallest line."""
    return sum(0 not in plane.lines[members[0]] for members in parallel_partition(plane).classes)


class TestPartitionOracle:
    @pytest.mark.parametrize("name", DILATION_PLANES)
    def test_planes(self, name):
        plane = verified_plane(name)
        assert parallel_partition(plane) == partition_oracle(plane)
        # the builder's layout and the conftest documents list each pencil
        # line first in its class, so they cannot tell the numbering apart
        assert pencil_not_smallest(plane) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["AG(2,4)", "AG(2,9)", "Hall(9)"])
    def test_line_shuffled_planes(self, name, seed):
        plane = load_plane(line_shuffled(DILATION_PLANES[name](), seed))
        assert verify_axioms(plane).all_pass
        assert parallel_partition(plane) == partition_oracle(plane)
        assert pencil_not_smallest(plane) > 0

    def test_dual_hall_cuts(self):
        broken = {}
        for point in range(91):
            plane = load_plane(dual_hall9_cut(point))
            assert verify_axioms(plane).all_pass
            assert parallel_partition(plane) == partition_oracle(plane), point
            broken[point] = pencil_not_smallest(plane)
        # classes numbered by their pencil line would differ here
        assert broken[0] == 8


COUNTING_DOCUMENTS = {
    "Fano": {"points": 7, "lines": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6],
                                    [2, 3, 6], [2, 4, 5]]},
    "near-pencil": {"points": 4, "lines": [[0, 1, 2], [0, 3], [1, 3], [2, 3]]},
    "K33": {"points": 6, "lines": [[i, j] for i in range(3) for j in range(3, 6)]},
}


class TestAxiomOracle:
    @pytest.mark.parametrize("name", PLANE_DOCUMENTS)
    def test_planes(self, name):
        plane = load_plane(PLANE_DOCUMENTS[name]())
        report = verify_axioms(plane)
        assert report.all_pass
        assert report == axioms_oracle(plane)

    @pytest.mark.parametrize("corruption", corrupted_documents(ag24_document()))
    @pytest.mark.parametrize("name", ORDER_3_UP)
    def test_corrupted_documents(self, name, corruption):
        plane = load_plane(corrupted_documents(PLANE_DOCUMENTS[name]())[corruption])
        report = verify_axioms(plane)
        assert not report.all_pass
        assert report == axioms_oracle(plane)

    def test_degenerate_and_random_documents(self):
        documents = [
            {"points": 0, "lines": []},
            {"points": 1, "lines": []},
            {"points": 3, "lines": [[0, 1, 2]]},
            {"points": 4, "lines": [[0, 1], [2, 3]]},
            {"points": 4, "lines": [[0, 1, 2, 3], [0, 1], [2, 3]]},
        ]
        rng = random.Random(20200320)
        while len(documents) < 200:
            n = rng.randrange(3, 9)
            lines = {frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
                     for _ in range(rng.randrange(0, 12))}
            documents.append({"points": n, "lines": [sorted(line) for line in lines]})
        # the triangle axiom from pairs: no line, one line, two lines on 0
        # and 1 that cover every point, a point on no line
        documents += [
            {"points": 2, "lines": []},
            {"points": 3, "lines": []},
            {"points": 5, "lines": [[0, 1, 2, 3, 4]]},
            {"points": 5, "lines": [[0, 1, 2], [0, 1, 3, 4]]},
            {"points": 6, "lines": [[0, 1, 2, 3, 4]]},
        ]
        # unique join per point: a full line with more lines, a point on no
        # line, a first failing point after 0, and pencils that cover every
        # point, but with a point twice
        documents += [
            {"points": 1, "lines": [[0]]},
            {"points": 2, "lines": [[0, 1]]},
            {"points": 5, "lines": [[0, 1, 2, 3, 4], [0, 1]]},
            {"points": 5, "lines": [[0, 1, 2, 3, 4], [3]]},
            {"points": 5, "lines": [[0, 1, 2, 3]]},
            {"points": 4, "lines": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]},
            {"points": 4, "lines": [[0, 1, 2], [0, 3], [1, 3], [2, 3], [1, 2]]},
            {"points": 4, "lines": [[0, 1, 2], [0, 1, 3], [2, 3]]},
        ]
        verdicts = set()
        for document in documents:
            plane = load_plane(document)
            report = verify_axioms(plane)
            assert report == axioms_oracle(plane), document
            verdicts.add((report.unique_join.passed, report.unique_parallel.passed,
                          report.triangle.passed))
        assert len(verdicts) >= 4

    @pytest.mark.parametrize(
        "name,scanned",
        [
            ("AG(2,3)", False),  # lines of 3, degrees 4
            ("Hall(9)", False),
            ("Fano", True),  # unique join, lines of 3, degrees 3, no parallel
            ("near-pencil", True),  # unique join, lines of 3 and of 2
            ("K33", True),  # lines of 2 and degrees 3, but 0 and 1 have no join
        ],
    )
    def test_unique_parallel_is_counted_on_uniform_sizes(self, monkeypatch, name, scanned):
        """The (p, l) scan runs unless unique join holds, every line has k
        points and every point lies on k + 1 lines; the report is the
        oracle's either way."""
        scans = []
        real = incidence.product
        monkeypatch.setattr(incidence, "product", lambda *a: scans.append(a) or real(*a))
        plane = load_plane(COUNTING_DOCUMENTS.get(name) or PLANE_DOCUMENTS[name]())
        report = verify_axioms(plane)
        assert report == axioms_oracle(plane)
        assert bool(scans) == scanned

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
    def test_one_line_document_takes_no_pair_step(self, monkeypatch, n):
        """Unique join is settled per point and the triangle axiom by the
        line through all n points; the report is the oracle's (its triple
        scan is run up to 50 points)."""
        pairs = []
        real = incidence.combinations
        monkeypatch.setattr(incidence, "combinations", lambda *a: pairs.append(a) or real(*a))
        plane = load_plane({"points": n, "lines": [list(range(n))]})
        report = verify_axioms(plane)
        assert pairs == []
        assert report == AxiomReport(AxiomCheck(True), AxiomCheck(True),
                                     AxiomCheck(False, ("no non-collinear point triple",)))
        if n <= 50:
            assert report == axioms_oracle(plane)


class TestCayleyOracle:
    @pytest.mark.parametrize("name", PLANE_DOCUMENTS)
    def test_translation_groups_and_lists_that_are_not_closed(self, name):
        plane = verified_plane(name)
        translations = [f for f in enumerate_dilations(plane) if f.kind == "translation"]
        one_direction = [f for f in translations if f.direction in (None, 0)]
        lists = [
            translations,
            one_direction,  # a subgroup: closed
            translations[:-1],
            translations[:len(translations) // 2] + translations[len(translations) // 2 + 1:],
            [translations[0], translations[1]],  # closed iff the order is even
            one_direction + [translations[-1]],
            translations + [translations[-1]],  # a repeated translation
            [translations[0], *translations],  # a repeated identity
        ]
        outcomes = []
        for listed in lists:
            expected = raised(cayley_oracle, listed)
            assert raised(lambda: build_group(plane, listed).cayley) == expected
            outcomes.append(expected[0] if isinstance(expected[0], type) else "table")
        pair = "table" if len(plane.lines[0]) % 2 == 0 else NotClosed
        assert outcomes == ["table", "table", NotClosed, NotClosed, pair, NotClosed,
                            NotClosed, NotClosed]


def ring_oracle(plane, g, tp, num_endomorphisms=None):
    """check_ring_axioms as a table scan: every sum and product formed as
    a table, and up to eight more tables built per triple."""
    for a in tp:
        _check_size(g, a)
    tables = [a.table for a in tp]
    index = {a: i for i, a in enumerate(tables)}
    k = len(tables)

    def plus(a, b):
        return _sum_table(g.cayley, a, b)

    times = compose_images
    sums = [[plus(a, b) for b in tables] for a in tables]
    products = [[times(a, b) for b in tables] for a in tables]
    # the pointwise inverses, not negate(): that raises on a non-endomorphism
    negatives = [times(g.inverse, a) for a in tables]
    zero = (0,) * g.order
    axioms: dict = {}

    def first_failure(pairs_or_triples, predicate):
        for item in pairs_or_triples:
            if not predicate(*item):
                return False, item
        return True, None

    pairs = list(itertools.product(range(k), repeat=2))
    triples = list(itertools.product(range(k), repeat=3))

    axioms["add_closure"] = first_failure(pairs, lambda i, j: sums[i][j] in index)
    axioms["add_associative"] = first_failure(
        triples, lambda i, j, l: plus(sums[i][j], tables[l]) == plus(tables[i], sums[j][l])
    )
    zi = index.get(zero)
    if zi is None:
        axioms["add_identity"] = (False, ("zero endomorphism missing",))
    else:
        axioms["add_identity"] = first_failure(
            [(i,) for i in range(k)],
            lambda i: sums[i][zi] == tables[i] and sums[zi][i] == tables[i],
        )
    axioms["add_inverses"] = first_failure(
        [(i,) for i in range(k)],
        lambda i: negatives[i] in index and plus(tables[i], negatives[i]) == zero,
    )
    axioms["add_commutative"] = first_failure(pairs, lambda i, j: sums[i][j] == sums[j][i])
    axioms["mul_closure"] = first_failure(pairs, lambda i, j: products[i][j] in index)
    axioms["mul_associative"] = first_failure(
        triples,
        lambda i, j, l: times(products[i][j], tables[l]) == times(tables[i], products[j][l]),
    )
    axioms["left_distributive"] = first_failure(
        triples,
        lambda i, j, l: times(tables[i], sums[j][l]) == plus(products[i][j], products[i][l]),
    )
    axioms["right_distributive"] = first_failure(
        triples,
        lambda i, j, l: times(sums[i][j], tables[l]) == plus(products[i][l], products[j][l]),
    )
    ui = index.get(tuple(range(g.order)))
    if ui is None:
        axioms["mul_identity"] = (False, ("unit endomorphism missing",))
    else:
        axioms["mul_identity"] = first_failure(
            [(i,) for i in range(k)],
            lambda i: products[i][ui] == tables[i] and products[ui][i] == tables[i],
        )

    mul_commutative, _ = first_failure(pairs, lambda i, j: products[i][j] == products[j][i])

    return RingReport(
        axioms=axioms,
        mul_commutative=mul_commutative,
        num_tp=k,
        num_endomorphisms=num_endomorphisms,
    )


def assert_ring_reports_agree(plane, g, tp):
    """check_ring_axioms's report, or error, is the oracle's: every
    verdict and every witness."""
    report = outcome(check_ring_axioms, plane, g, tp)
    assert report == outcome(ring_oracle, plane, g, tp)
    return report


def failing_axioms(report):
    return {name for name, (passed, _) in report.axioms.items() if not passed}


def ring_mutants(tp, order, seed):
    """The TP list, each map dropped, and seeded mutants: a listed map
    duplicated, the list shuffled, and a listed map with one entry
    rewritten or a random table, each inserted at a random place."""
    rng = random.Random(seed)
    tables = [a.table for a in tp]
    lists = [tables] + [tables[:i] + tables[i + 1:] for i in range(len(tables))]

    def inserted(table):
        at = rng.randrange(len(tables) + 1)
        return tables[:at] + [tuple(table)] + tables[at:]

    for _ in range(4):
        corrupted = list(rng.choice(tables))
        corrupted[rng.randrange(order)] = rng.randrange(order)
        lists += [
            inserted(rng.choice(tables)),
            rng.sample(tables, len(tables)),
            inserted(corrupted),
            inserted([rng.randrange(order) for _ in range(order)]),
        ]
    return [[GroupSelfMap(t) for t in listed] for listed in lists]


RING_PLANES = {**PLANE_DOCUMENTS, "dual_hall9_cut(0)": partial(dual_hall9_cut, 0)}


class TestRingOracle:
    def test_lists_of_the_ring_tests(self, planes, groups, tp_endomorphisms):
        unit = tuple(range(groups[3].order))
        cases = [(p, tp_endomorphisms[p]) for p in (2, 3, 5)] + [
            (3, [a for a in tp_endomorphisms[3] if a.table != unit]),
            (2, tp_endomorphisms[2] + [GroupSelfMap((0, 0, 2, 3))]),
            (3, tp_endomorphisms[3] + [GroupSelfMap((0,) + (1,) * 8)]),
        ] + [(3, tp_endomorphisms[3][:at] + [GroupSelfMap((0,) * 4)] + tp_endomorphisms[3][at:])
             for at in (0, 1, 3)]
        reports = [assert_ring_reports_agree(planes[p], groups[p], tp) for p, tp in cases]
        assert [r.all_pass for r in reports[:3]] == [True] * 3
        assert [failing_axioms(r) for r in reports[3:6]] == [
            {"add_closure", "add_inverses", "mul_closure", "mul_identity"},
            {"add_closure"},
            {"add_closure", "add_inverses", "mul_closure", "left_distributive"},
        ]
        assert reports[6:] == [SizeMismatch] * 3

    @pytest.mark.parametrize("p", [2, 3])
    def test_empty_list(self, planes, groups, p):
        report = assert_ring_reports_agree(planes[p], groups[p], [])
        assert report.axioms["add_identity"] == (False, ("zero endomorphism missing",))
        assert report.axioms["mul_identity"] == (False, ("unit endomorphism missing",))
        assert failing_axioms(report) == {"add_identity", "mul_identity"}
        assert report.mul_commutative and report.num_tp == 0

    @pytest.mark.parametrize("name", RING_PLANES)
    def test_seeded_mutants_of_the_tp_list(self, name):
        plane = load_plane(RING_PLANES[name]())
        assert verify_axioms(plane).all_pass
        g = build_group(plane, [f for f in enumerate_dilations(plane) if f.kind == "translation"])
        tp = enumerate_tp_endomorphisms(plane, g)
        failing = set()
        for listed in ring_mutants(tp, g.order, seed=g.order):
            failing |= failing_axioms(assert_ring_reports_agree(plane, g, listed))
        # a dropped zero or unit, an unclosed list, and a triple witness;
        # on any maps of an abelian group + and o are associative, + is
        # commutative and o distributes over + from the right, so no
        # mutant fails those
        if g.order > 1:
            assert {"add_closure", "add_identity", "left_distributive", "mul_closure",
                    "mul_identity"} <= failing
        else:
            assert failing == {"add_identity", "mul_identity"}

    def test_left_distributivity_is_scanned_for_a_listed_non_endomorphism(
        self, planes, groups, tp_endomorphisms
    ):
        # collapse is no endomorphism, so its row is scanned
        maps = tp_endomorphisms[3] + [GroupSelfMap((0,) + (1,) * 8)]
        report = check_ring_axioms(planes[3], groups[3], maps)
        assert report.axioms["left_distributive"] == (False, (3, 1, 1))
        assert report == ring_oracle(planes[3], groups[3], maps)

    @pytest.mark.parametrize("name", ["S3", "Q8"])
    def test_end_of_non_abelian_groups(self, name):
        # + is no longer commutative, and a sum of endomorphisms need not be one
        g = SMALL_GROUPS[name][0]
        report = assert_ring_reports_agree(None, g, enumerate_endomorphisms(g))
        assert failing_axioms(report) == {"add_closure", "add_inverses", "add_commutative"}
