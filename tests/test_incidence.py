import pytest

from affineplane import (
    IncidencePlane,
    build_prime_plane,
    line_through,
    load_plane,
    parallel,
    parallel_partition,
    parallel_through_point,
    verify_axioms,
)
from affineplane.errors import MalformedDocument, NotVerified, SamePoint

from conftest import AG22_DOC


def lid(plane: IncidencePlane, *points: int) -> int:
    return plane.line_index[frozenset(points)]


class TestLoadPlane:
    def test_ag22_document_matches_builder(self, p2):
        plane = load_plane(AG22_DOC)
        assert plane.num_points == 4
        assert plane.num_lines == 6
        assert set(plane.lines) == set(p2.lines)

    def test_degenerate_single_point_loads_but_fails_triangle(self):
        plane = load_plane({"points": 1, "lines": []})
        report = verify_axioms(plane)
        assert not report.triangle.passed
        assert plane.axiom_status == "failed"

    def test_duplicate_line_rejected(self):
        with pytest.raises(MalformedDocument):
            load_plane({"points": 3, "lines": [[0, 1], [0, 1]]})

    def test_duplicate_line_with_reordered_points_rejected(self):
        with pytest.raises(MalformedDocument):
            load_plane({"points": 3, "lines": [[0, 1], [1, 0]]})

    @pytest.mark.parametrize(
        "document",
        [
            {"points": 3, "lines": [[0, 5]]},
            {"points": 3, "lines": [[]]},
            {"points": 3, "lines": [[0, 0, 1]]},
            {"points": -1, "lines": []},
            {"points": 3},
            {"lines": []},
        ],
    )
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(MalformedDocument):
            load_plane(document)

    def test_unknown_field_warns_but_loads(self):
        with pytest.warns(UserWarning, match="unknown field"):
            plane = load_plane({**AG22_DOC, "comment": "extra"})
        assert plane.num_lines == 6


class TestVerifyAxioms:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_planes_pass(self, planes, p):
        report = verify_axioms(planes[p])
        assert report.all_pass
        assert planes[p].axiom_status == "verified"

    def test_missing_line_fails_unique_join_with_witness(self):
        doc = {"points": 4, "lines": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3]]}
        plane = load_plane(doc)
        report = verify_axioms(plane)
        assert not report.unique_join.passed
        assert report.unique_join.witness[:2] == (1, 2)

    def test_operations_refuse_unverified_plane(self):
        plane = load_plane(AG22_DOC)
        with pytest.raises(NotVerified):
            parallel_partition(plane)
        with pytest.raises(NotVerified):
            plane.join_table()


class TestLineThrough:
    def test_examples(self, p2):
        assert line_through(p2, 0, 1) == lid(p2, 0, 1)
        assert line_through(p2, 0, 3) == lid(p2, 0, 3)

    def test_same_point_rejected(self, p2):
        with pytest.raises(SamePoint):
            line_through(p2, 0, 0)

    @pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "failed"])
    def test_unverified_plane_refused_after_the_same_point_check(self, checked):
        # AG(2,2) less the line {1, 2}: no line joins 1 and 2
        plane = load_plane({"points": 4, "lines": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3]]})
        if checked:
            assert not verify_axioms(plane).all_pass
        with pytest.raises(SamePoint):
            line_through(plane, 1, 1)
        for p, q in [(0, 1), (1, 2)]:  # one join, none: both refused
            with pytest.raises(NotVerified):
                line_through(plane, p, q)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_pair_has_unique_join(self, planes, p):
        plane = planes[p]
        for a in range(plane.num_points):
            for b in range(a + 1, plane.num_points):
                joins = [l for l, pts in enumerate(plane.lines) if a in pts and b in pts]
                assert joins == [line_through(plane, a, b)]


class TestParallel:
    def test_examples(self, p2):
        assert parallel(p2, lid(p2, 0, 1), lid(p2, 2, 3))
        assert parallel(p2, lid(p2, 0, 1), lid(p2, 0, 1))
        assert not parallel(p2, lid(p2, 0, 1), lid(p2, 0, 2))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equivalence_relation(self, planes, p):
        plane = planes[p]
        nl = plane.num_lines
        rel = [[parallel(plane, l, m) for m in range(nl)] for l in range(nl)]
        for l in range(nl):
            assert rel[l][l]
            for m in range(nl):
                assert rel[l][m] == rel[m][l]
                for k in range(nl):
                    if rel[l][m] and rel[m][k]:
                        assert rel[l][k]


class TestParallelThroughPoint:
    def test_unique_disjoint_line(self, p2):
        assert parallel_through_point(p2, lid(p2, 0, 1), 2) == lid(p2, 2, 3)

    def test_point_on_line_returns_line(self, p2):
        l = lid(p2, 0, 1)
        assert parallel_through_point(p2, l, 0) == l

    def test_ag23_horizontal(self, p3):
        # y=0 is points {0,3,6}; the parallel through (0,1)=point 1 is y=1
        assert parallel_through_point(p3, lid(p3, 0, 3, 6), 1) == lid(p3, 1, 4, 7)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_result_is_parallel_contains_point_and_unique(self, planes, p):
        plane = planes[p]
        for l in range(plane.num_lines):
            for q in range(plane.num_points):
                m = parallel_through_point(plane, l, q)
                assert q in plane.lines[m]
                assert parallel(plane, l, m)
                others = [
                    r
                    for r in plane.lines_through[q]
                    if parallel(plane, l, r)
                ]
                assert others == [m]


class TestParallelPartition:
    @pytest.mark.parametrize("p,classes,size", [(2, 3, 2), (3, 4, 3), (5, 6, 5)])
    def test_class_counts(self, planes, p, classes, size):
        part = parallel_partition(planes[p])
        assert part.num_classes == classes
        assert all(len(c) == size for c in part.classes)
        assert classes * size == planes[p].num_lines

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_classes_agree_with_parallel(self, planes, p):
        plane = planes[p]
        part = parallel_partition(plane)
        for l in range(plane.num_lines):
            for m in range(plane.num_lines):
                assert (part.class_of[l] == part.class_of[m]) == parallel(plane, l, m)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_classes_partition_lines(self, planes, p):
        part = parallel_partition(planes[p])
        seen = [l for c in part.classes for l in c]
        assert sorted(seen) == list(range(planes[p].num_lines))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ag2p_structural_counts(p):
    plane = build_prime_plane(p)
    assert plane.num_points == p * p
    assert plane.num_lines == p * p + p
    assert all(len(pts) == p for pts in plane.lines)
    assert all(len(ls) == p + 1 for ls in plane.lines_through)
    assert parallel_partition(plane).num_classes == p + 1
