import itertools

import pytest

from affineplane import (
    classify,
    enumerate_dilations,
    fixed_points,
    is_collineation,
    is_dilation,
    is_translation,
    parallel_partition,
)
from affineplane.errors import NotTranslation, SizeMismatch
from affineplane.transgroup import build_group, check_abelian, compose_images
from conftest import identity_map
from test_oracles import collineations_oracle, trace_direction_oracle, trace_oracle

KLEIN = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


def ag3_map(fn):
    """Point map of AG(2,3) from a coordinate map (x, y) -> (x', y')."""
    image = [0] * 9
    for x in range(3):
        for y in range(3):
            x2, y2 = fn(x, y)
            image[x * 3 + y] = (x2 % 3) * 3 + (y2 % 3)
    return tuple(image)


HOMOTHETY3 = ag3_map(lambda x, y: (2 * x, 2 * y))
SHIFT3 = ag3_map(lambda x, y: (x + 1, y))


class TestIsCollineation:
    def test_identity(self, p2):
        assert is_collineation(p2, (0, 1, 2, 3))

    def test_every_permutation_of_ag22(self, p2):
        # lines of AG(2,2) are exactly the 2-subsets, so S4 acts by collineations
        assert all(
            is_collineation(p2, perm) for perm in itertools.permutations(range(4))
        )

    def test_bare_transposition_on_ag23_is_not(self, p3):
        image = list(range(9))
        image[0], image[3] = 3, 0  # swap (0,0) and (1,0), fix the rest
        assert not is_collineation(p3, tuple(image))

    def test_size_mismatch(self, p2):
        with pytest.raises(SizeMismatch):
            is_collineation(p2, (0, 1, 2))


class TestIsDilation:
    def test_identity(self, p3):
        assert is_dilation(p3, tuple(range(9)))

    def test_homothety(self, p3):
        assert is_dilation(p3, HOMOTHETY3)

    def test_transposition_is_not(self, p2):
        assert not is_dilation(p2, (1, 0, 2, 3))


class TestFixedPoints:
    def test_identity_fixes_all(self):
        assert fixed_points(range(7)) == frozenset(range(7))

    def test_translation_fixes_none(self):
        assert fixed_points((1, 0, 3, 2)) == frozenset()

    def test_homothety_fixes_origin(self):
        assert fixed_points(HOMOTHETY3) == frozenset({0})


class TestIsTranslation:
    def test_identity(self, p2):
        assert is_translation(p2, (0, 1, 2, 3))

    def test_fixed_point_free_dilation(self, p2):
        assert is_translation(p2, (1, 0, 3, 2))

    def test_homothety_is_not(self, p3):
        assert not is_translation(p3, HOMOTHETY3)


class TestTrace:
    """The traces the oracles read, and the join-table lookup classify reads
    for the trace of point 0."""

    def test_translation_trace(self, p2):
        f = classify(p2, (1, 0, 3, 2))
        assert p2.lines[trace_oracle(p2, f, 0)] == frozenset({0, 1})
        assert trace_oracle(p2, f, 0) == p2.join_table()[0][f.image[0]]

    def test_identity_has_no_trace(self, p2):
        assert trace_oracle(p2, identity_map(p2), 0) is None

    def test_homothety_trace_is_x_axis(self, p3):
        f = classify(p3, HOMOTHETY3)
        assert f.kind == "dilation"
        assert p3.lines[trace_oracle(p3, f, 3)] == frozenset({0, 3, 6})
        assert trace_oracle(p3, f, 3) == p3.join_table()[3][f.image[3]]


class TestDirection:
    """classify's direction, the class of the trace of point 0, against
    every trace."""

    def test_translation_direction(self, p2):
        f = classify(p2, (1, 0, 3, 2))
        part = parallel_partition(p2)
        assert f.direction == part.class_of[p2.line_index[frozenset({0, 1})]]
        assert f.direction == trace_direction_oracle(p2, f)

    def test_identity_direction_undefined(self, p2):
        f = classify(p2, tuple(range(4)))
        assert f.kind == "translation"
        assert f.direction is None
        assert trace_direction_oracle(p2, f) is None

    def test_shift_direction_is_vertical_class_of_its_traces(self, p3):
        f = classify(p3, SHIFT3)
        part = parallel_partition(p3)
        # trace of (0,0) under (x,y)->(x+1,y) joins points 0 and 3: the line y=0
        assert f.direction == part.class_of[p3.line_index[frozenset({0, 3, 6})]]
        assert f.direction == trace_direction_oracle(p3, f)

    def test_non_translation_rejected(self, p3):
        f = classify(p3, HOMOTHETY3)
        assert f.direction is None
        with pytest.raises(NotTranslation):
            trace_direction_oracle(p3, f)


class TestEnumerateCollineations:
    """The backtracking oracle that feeds TestDilationOracle."""

    def test_ag22_count_matches_brute_force(self, p2):
        enumerated = set(collineations_oracle(p2))
        brute = {
            perm
            for perm in itertools.permutations(range(4))
            if is_collineation(p2, perm)
        }
        assert enumerated == brute
        assert len(enumerated) == 24

    def test_ag23_count(self, p3):
        assert len(collineations_oracle(p3)) == 432

    def test_closed_under_composition_and_inverse(self, p2):
        images = set(collineations_oracle(p2))
        for f in images:
            inv = [0] * 4
            for a, b in enumerate(f):
                inv[b] = a
            assert tuple(inv) in images
            for g in images:
                assert compose_images(f, g) in images


class TestEnumerateDilations:
    @pytest.mark.parametrize("p,count", [(2, 4), (3, 18), (5, 100)])
    def test_counts(self, dilations, p, count):
        assert len(dilations[p]) == count

    def test_every_output_is_a_dilation(self, planes, dilations):
        for p, dil in dilations.items():
            assert all(is_dilation(planes[p], f.image) for f in dil)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_filtered_collineations(self, planes, dilations, p):
        filtered = {
            image for image in collineations_oracle(planes[p]) if is_dilation(planes[p], image)
        }
        assert {f.image for f in dilations[p]} == filtered

    @pytest.mark.parametrize("p", [2, 3])
    def test_cayley_closure(self, dilations, p):
        images = {f.image for f in dilations[p]}
        for f in images:
            for g in images:
                assert compose_images(f, g) in images

    def test_two_fixed_points_forces_identity(self, planes, dilations):
        for p, dil in dilations.items():
            identity = tuple(range(planes[p].num_points))
            for f in dil:
                if len(f.fixed_points) >= 2:
                    assert f.image == identity

    def test_ag24_non_prime_plane(self, ag24):
        dil = enumerate_dilations(ag24)
        tr = [f for f in dil if f.kind == "translation"]
        assert (len(dil), len(tr)) == (48, 16)
        assert all(is_dilation(ag24, f.image) for f in dil)
        group = build_group(ag24, tr)
        assert check_abelian(group).passed
        # exponent 2: every translation is its own inverse (Z_2^4)
        assert all(group.cayley[i][i] == 0 for i in range(group.order))


class TestEnumerateTranslations:
    """The translations: the dilations of kind "translation"."""

    def test_ag22_is_the_klein_four_group(self, translations):
        assert {f.image for f in translations[2]} == set(KLEIN)

    @pytest.mark.parametrize("p,count", [(2, 4), (3, 9), (5, 25)])
    def test_counts(self, translations, p, count):
        assert len(translations[p]) == count

    def test_nonidentity_translations_carry_a_direction(self, translations):
        for tr in translations.values():
            for f in tr:
                assert (f.direction is None) == f.is_identity

    def test_all_traces_share_one_class(self, planes, translations):
        for p, tr in translations.items():
            plane = planes[p]
            part = parallel_partition(plane)
            for f in tr:
                if f.is_identity:
                    continue
                classes = {
                    part.class_of[trace_oracle(plane, f, q)]
                    for q in range(plane.num_points)
                }
                assert classes == {f.direction}
