"""The local membership tests agree with the definitions they replace.

``is_endomorphism`` checks the homomorphism identity at the generators
only, and ``is_dilation`` / ``classify`` check one line at a time.  The
all-pairs definitions live here, as oracles, and every test below asks
both for a verdict on the same maps.
"""

import itertools
import random

import pytest

from affineplane import (
    GroupSelfMap,
    add,
    classify,
    compose,
    enumerate_collineations,
    is_collineation,
    is_dilation,
    is_endomorphism,
    parallel_partition,
)
from affineplane.endo import _element_words
from affineplane.transgroup import generators


def endomorphism_oracle(g, table):
    """The definition: t[0] = 0 and t[i.j] = t[i].t[j] at every pair."""
    n = g.order
    return table[0] == 0 and all(
        table[g.cayley[i][j]] == g.cayley[table[i]][table[j]]
        for i in range(n)
        for j in range(n)
    )


def collineation_oracle(plane, image):
    return all(
        frozenset(image[p] for p in pts) in plane.line_index for pts in plane.lines
    )


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


def kind_oracle(plane, image):
    """The classify kind the oracles call for, translations and dilations merged."""
    if not collineation_oracle(plane, image):
        return "general"
    if not dilation_oracle(plane, image):
        return "collineation"
    return "dilation"


def assert_endomorphism_verdicts_agree(g, tables):
    """Fresh maps each time, so no memoized verdict is reused."""
    verdicts = []
    for table in tables:
        local = is_endomorphism(g, GroupSelfMap(tuple(table)))
        assert local == endomorphism_oracle(g, table), table
        verdicts.append(local)
    return verdicts


def assert_dilation_verdicts_agree(plane, images):
    kinds = []
    for image in images:
        assert is_collineation(plane, image) == collineation_oracle(plane, image)
        assert is_dilation(plane, image) == dilation_oracle(plane, image)
        kind = classify(plane, image).kind
        kind = "dilation" if kind == "translation" else kind
        assert kind == kind_oracle(plane, image), image
        kinds.append(kind)
    return kinds


def affine_map(p, matrix, shift):
    """Point map of AG(2,p) for (x, y) -> matrix.(x, y) + shift."""
    (a, b), (c, d) = matrix
    image = [0] * (p * p)
    for x in range(p):
        for y in range(p):
            x2 = (a * x + b * y + shift[0]) % p
            y2 = (c * x + d * y + shift[1]) % p
            image[x * p + y] = x2 * p + y2
    return tuple(image)


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
        gens = generators(g)
        words = _element_words(g, gens)
        tables = []
        for images in itertools.product(range(g.order), repeat=len(gens)):
            table = []
            for w in words:
                acc = 0
                for gi in w:
                    acc = g.cayley[images[gi]][acc]
                table.append(acc)
            tables.append(table)
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


class TestDilationOracle:
    @pytest.mark.parametrize("p,dilations", [(2, 4), (3, 18)])
    def test_every_collineation(self, planes, p, dilations):
        plane = planes[p]
        images = [f.image for f in enumerate_collineations(plane)]
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
