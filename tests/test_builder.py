import pytest

from affineplane import build_prime_plane, is_prime, verify_axioms
from affineplane.builder import point_id
from affineplane.errors import NotPrime

from test_oracles import MEET_PLANES, meet_plane, parallel_oracle


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_built_planes_pass_axioms(p):
    plane = build_prime_plane(p)
    assert plane.verified
    assert verify_axioms(plane).all_pass
    assert plane.num_points == p * p
    assert plane.num_lines == p * p + p


def test_composite_order_rejected():
    with pytest.raises(NotPrime):
        build_prime_plane(4)


def test_library_takes_no_order_bound():
    # --max-order is the CLI's policy (test_cli.TestBuild)
    assert build_prime_plane(17).num_points == 289


def test_point_id_layout():
    p3 = build_prime_plane(3)
    assert point_id(1, 2, 3) == 5
    # the vertical x=1 is the set {(1,0),(1,1),(1,2)}
    assert frozenset({3, 4, 5}) in p3.line_index


class TestIntersect:
    """The common points of two lines, read from the AND of their masks."""

    def test_shared_point(self, p2):
        l = p2.line_index[frozenset({0, 1})]
        m = p2.line_index[frozenset({0, 2})]
        masks = p2.line_masks()
        assert masks[l] & masks[m] == 1 << 0

    def test_parallel_lines_have_no_intersection(self, p2):
        l = p2.line_index[frozenset({0, 1})]
        m = p2.line_index[frozenset({2, 3})]
        masks = p2.line_masks()
        assert masks[l] & masks[m] == 0

    @pytest.mark.parametrize("name", MEET_PLANES)
    def test_distinct_nonparallel_lines_meet_once(self, name):
        plane = meet_plane(name)
        masks = plane.line_masks()
        for l in range(plane.num_lines):
            for m in range(plane.num_lines):
                if l == m:
                    continue
                common = plane.lines[l] & plane.lines[m]
                meet = masks[l] & masks[m]
                if parallel_oracle(plane, l, m):
                    assert meet == 0
                    assert not common
                else:
                    assert len(common) == 1
                    assert meet == 1 << min(common)
