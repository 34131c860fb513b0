import itertools
import json
import time
from functools import partial
import tracemalloc

import pytest

from affineplane import (
    GroupSelfMap,
    add,
    build_group,
    check_ring_axioms,
    compose,
    enumerate_dilations,
    enumerate_endomorphisms,
    enumerate_tp_endomorphisms,
    inversion_endo,
    is_endomorphism,
    is_trace_preserving,
    load_plane,
    negate,
    scalar_labeling,
    unit_endo,
    verify_axioms,
    zero_endo,
)
from affineplane.errors import NotEndomorphism, SizeMismatch
from affineplane.cli import main
from conftest import ag29_document, dual_hall9_cut, hall9_document, identity_map


def brute_force_endomorphisms(g):
    """Oracle: filter every possible table by the homomorphism identity.

    Checks the defining identity directly against the Cayley table,
    independently of is_endomorphism and of the generator-image search.
    """
    n = g.order
    out = set()
    for table in itertools.product(range(n), repeat=n):
        if all(
            table[g.cayley[i][j]] == g.cayley[table[i]][table[j]]
            for i in range(n)
            for j in range(n)
        ):
            out.add(table)
    return out


class TestOperations:
    def test_add_zero_is_identity_of_addition(self, groups, endomorphisms):
        g = groups[2]
        zero = zero_endo(g)
        for alpha in endomorphisms[2]:
            assert add(g, alpha, zero).table == alpha.table

    def test_one_plus_one_is_zero_on_klein_group(self, groups):
        g = groups[2]
        assert add(g, unit_endo(g), unit_endo(g)).table == zero_endo(g).table

    def test_additive_inverse_cancels(self, groups, endomorphisms):
        for p in (2, 3):
            g = groups[p]
            for alpha in endomorphisms[p]:
                assert add(g, alpha, negate(g, alpha)).table == zero_endo(g).table

    def test_compose_with_unit(self, groups, endomorphisms):
        g = groups[3]
        for alpha in endomorphisms[3]:
            assert compose(g, alpha, unit_endo(g)).table == alpha.table

    def test_zero_absorbs(self, groups, endomorphisms):
        g = groups[3]
        for alpha in endomorphisms[3]:
            assert compose(g, zero_endo(g), alpha).table == zero_endo(g).table

    def test_inversion_is_an_involution(self, groups):
        for g in groups.values():
            phi = inversion_endo(g)
            assert compose(g, phi, phi).table == unit_endo(g).table

    def test_inversion_on_klein_group_is_unit(self, groups):
        g = groups[2]
        assert inversion_endo(g).table == unit_endo(g).table

    def test_inversion_maps_shift_to_opposite_shift(self, groups, p3):
        g = groups[3]
        shift = [0] * 9
        unshift = [0] * 9
        for x in range(3):
            for y in range(3):
                shift[x * 3 + y] = ((x + 1) % 3) * 3 + y
                unshift[x * 3 + y] = ((x + 2) % 3) * 3 + y
        i, j = g.index_of(tuple(shift)), g.index_of(tuple(unshift))
        assert inversion_endo(g).table[i] == j

    def test_negate_of_zero_and_unit(self, groups):
        g = groups[3]
        assert negate(g, zero_endo(g)).table == zero_endo(g).table
        assert negate(g, unit_endo(g)).table == inversion_endo(g).table

    def test_negate_is_inversion_composed_with_alpha(self, groups, endomorphisms):
        for p in (2, 3):
            g = groups[p]
            phi = inversion_endo(g)
            for alpha in endomorphisms[p]:
                assert negate(g, alpha).table == compose(g, phi, alpha).table

    def test_negate_requires_endomorphism(self, groups):
        g = groups[2]
        with pytest.raises(NotEndomorphism):
            negate(g, GroupSelfMap((0, 1, 1, 1)))
        # the verdict is read from the table, and no caller can mark a map
        collapse = (0,) + (1,) * 8
        with pytest.raises(NotEndomorphism):
            negate(groups[3], GroupSelfMap(collapse))
        with pytest.raises(TypeError):
            GroupSelfMap(collapse, is_endomorphism=True)


class TestIsEndomorphism:
    def test_unit_and_zero(self, groups):
        for g in groups.values():
            assert is_endomorphism(g, unit_endo(g))
            assert is_endomorphism(g, zero_endo(g))

    def test_collapsing_one_element_is_not(self, groups):
        # send exactly one non-identity element to the identity, fix the others
        assert not is_endomorphism(groups[2], GroupSelfMap((0, 0, 2, 3)))

    def test_nonzero_image_of_identity_is_not(self, groups):
        assert not is_endomorphism(groups[2], GroupSelfMap((1, 0, 3, 2)))


class TestEnumeration:
    def test_klein_group_matches_brute_force_oracle(self, groups, endomorphisms):
        brute = brute_force_endomorphisms(groups[2])
        assert len(brute) == 16
        assert {a.table for a in endomorphisms[2]} == brute

    def test_ag23_count_and_predicate(self, groups, endomorphisms):
        g = groups[3]
        assert len(endomorphisms[3]) == 81
        for alpha in endomorphisms[3]:
            assert alpha.table[0] == 0
            assert all(
                alpha.table[g.cayley[i][j]]
                == g.cayley[alpha.table[i]][alpha.table[j]]
                for i in range(g.order)
                for j in range(g.order)
            )

    def test_trivial_group_has_one_endomorphism(self, p2):
        g = build_group(p2, [identity_map(p2)])
        assert [a.table for a in enumerate_endomorphisms(g)] == [(0,)]


class TestTracePreservation:
    def test_zero_and_unit_are_trace_preserving(self, planes, groups):
        for p in (2, 3, 5):
            assert is_trace_preserving(planes[p], groups[p], zero_endo(groups[p]))
            assert is_trace_preserving(planes[p], groups[p], unit_endo(groups[p]))

    def test_direction_swap_is_endomorphism_but_not_trace_preserving(
        self, p2, groups
    ):
        g = groups[2]
        swap = GroupSelfMap((0, 2, 1, 3))
        assert is_endomorphism(g, swap)
        assert g.direction_of[1] != g.direction_of[2]
        assert not is_trace_preserving(p2, g, swap)

    @pytest.mark.parametrize("p,count", [(2, 2), (3, 3), (5, 5)])
    def test_counts(self, tp_endomorphisms, p, count):
        assert len(tp_endomorphisms[p]) == count


class TestClosureLemmas:
    @pytest.mark.parametrize("p", [2, 3])
    def test_sums_and_composites_of_endomorphisms(self, groups, endomorphisms, p):
        g = groups[p]
        for alpha in endomorphisms[p]:
            for beta in endomorphisms[p]:
                assert is_endomorphism(g, add(g, alpha, beta))
                assert is_endomorphism(g, compose(g, alpha, beta))

    @pytest.mark.parametrize("p", [2, 3])
    def test_sums_and_composites_of_tp(self, planes, groups, tp_endomorphisms, p):
        plane, g = planes[p], groups[p]
        for alpha in tp_endomorphisms[p]:
            for beta in tp_endomorphisms[p]:
                assert is_trace_preserving(plane, g, add(g, alpha, beta))
                assert is_trace_preserving(plane, g, compose(g, alpha, beta))


class TestRingReport:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_all_axioms_pass(self, planes, groups, tp_endomorphisms, p):
        report = check_ring_axioms(planes[p], groups[p], tp_endomorphisms[p])
        assert report.all_pass
        for name in report.AXIOM_NAMES:
            assert report.axioms[name] == (True, None)

    @pytest.mark.parametrize("p", [2, 3])
    def test_tables_match_integers_mod_p(self, groups, tp_endomorphisms, p):
        g, tp = groups[p], tp_endomorphisms[p]
        labels = scalar_labeling(g, tp)
        assert sorted(labels) == list(range(p))
        for i in range(p):
            for j in range(p):
                s = add(g, tp[i], tp[j])
                m = compose(g, tp[i], tp[j])
                assert labels[[a.table for a in tp].index(s.table)] == (
                    labels[i] + labels[j]
                ) % p
                assert labels[[a.table for a in tp].index(m.table)] == (
                    labels[i] * labels[j]
                ) % p

    def test_unit_removed_fails_mul_identity_with_witness(
        self, planes, groups, tp_endomorphisms
    ):
        g = groups[3]
        unit = unit_endo(g)
        truncated = [a for a in tp_endomorphisms[3] if a.table != unit.table]
        report = check_ring_axioms(planes[3], g, truncated)
        passed, witness = report.axioms["mul_identity"]
        assert not passed
        assert witness is not None
        assert not report.all_pass

    def test_non_endomorphism_is_reported_not_raised(
        self, planes, groups, tp_endomorphisms
    ):
        g = groups[2]
        report = check_ring_axioms(
            planes[2], g, tp_endomorphisms[2] + [GroupSelfMap((0, 0, 2, 3))]
        )
        assert not report.all_pass
        assert report.axioms["add_closure"] == (False, (1, 2))
        # every Klein-group element is its own inverse, so the map negates itself
        assert report.axioms["add_inverses"] == (True, None)

    def test_missing_additive_inverse_has_witness(
        self, planes, groups, tp_endomorphisms
    ):
        g = groups[3]
        collapse = GroupSelfMap((0,) + (1,) * 8)
        report = check_ring_axioms(planes[3], g, tp_endomorphisms[3] + [collapse])
        # collapse is no endomorphism, so it breaks left distributivity;
        # the first failing triple, in scan order, is (collapse, tp[1], tp[1])
        assert report.axioms == {
            "add_closure": (False, (1, 3)),
            "add_associative": (True, None),
            "add_identity": (True, None),
            "add_inverses": (False, (3,)),
            "add_commutative": (True, None),
            "mul_closure": (False, (2, 3)),
            "mul_associative": (True, None),
            "left_distributive": (False, (3, 1, 1)),
            "right_distributive": (True, None),
            "mul_identity": (True, None),
        }
        assert report.mul_commutative is False

    def test_ring_scan_keeps_no_triples_list(self):
        # 27 of the 81 TP maps of a plane whose translations lie in one
        # direction; listing the 27^3 index triples took 1.33 MB
        plane = load_plane(dual_hall9_cut(81))
        assert verify_axioms(plane).all_pass
        g = build_group(plane, [f for f in enumerate_dilations(plane) if f.kind == "translation"])
        tp = enumerate_tp_endomorphisms(plane, g)[:27]
        tracemalloc.start()
        try:
            report = check_ring_axioms(plane, g, tp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_pass
        assert peak < 500_000

    def test_ring_on_81_maps_scans_no_law_that_holds_for_every_list(self):
        # End(Z_3^2): associativity, right distributivity and the unit laws
        # are proven, and every map is an endomorphism, so no triple is
        # scanned; scanning them took 1.4-1.8 s
        plane = load_plane(dual_hall9_cut(81))
        assert verify_axioms(plane).all_pass
        g = build_group(plane, [f for f in enumerate_dilations(plane) if f.kind == "translation"])
        tp = enumerate_tp_endomorphisms(plane, g)
        assert len(tp) == 81
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            report = check_ring_axioms(plane, g, tp)
            best = min(best, time.perf_counter() - start)
        assert report.all_pass
        assert best < 0.5

    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_wrong_size_table_raises(self, planes, groups, tp_endomorphisms, at):
        g, tp = groups[3], list(tp_endomorphisms[3])
        tp.insert(at, GroupSelfMap((0,) * 4))
        with pytest.raises(SizeMismatch):
            check_ring_axioms(planes[3], g, tp)


@pytest.mark.parametrize("table", [(0, -3, -2, -1), (0, 1, 2, 9)])
@pytest.mark.parametrize(
    "operation", ["add", "compose", "is_endomorphism", "check_ring_axioms"]
)
def test_entry_outside_the_group_raises(planes, groups, tp_endomorphisms, table, operation):
    # a negative entry would be read by wrap-around, a large one past the end
    g, bad = groups[2], GroupSelfMap(table)
    unit, listed = unit_endo(g), tp_endomorphisms[2] + [bad]
    calls = {
        "add": [partial(add, g, bad, unit), partial(add, g, unit, bad)],
        "compose": [partial(compose, g, bad, unit), partial(compose, g, unit, bad)],
        "is_endomorphism": [partial(is_endomorphism, g, bad)],
        "check_ring_axioms": [partial(check_ring_axioms, planes[2], g, listed)],
    }
    for call in calls[operation]:
        with pytest.raises(SizeMismatch, match=r"outside range\(4\)"):
            call()


ORDER_NINE = {"AG(2,9)": ag29_document, "Hall(9)": hall9_document}


@pytest.fixture(scope="module", params=sorted(ORDER_NINE))
def order_nine(request):
    """(name, plane, Tr, |Dil|) of an order-9 plane from its spread."""
    plane = load_plane(ORDER_NINE[request.param]())
    assert verify_axioms(plane).all_pass
    dilations = enumerate_dilations(plane)
    g = build_group(plane, [f for f in dilations if f.kind == "translation"])
    return request.param, plane, g, len(dilations)


class TestOrderNine:
    """The first exhaustive ring check on a non-Desarguesian plane.

    |End(Tr)| = 3^16 rules out filtering End; the TP search tries 8,100
    generator images on AG(2,9) and 1,782 on the Hall plane.
    """

    EXPECTED = {"AG(2,9)": (648, 9), "Hall(9)": (162, 3)}

    def test_translation_group(self, order_nine):
        name, _, g, num_dilations = order_nine
        assert (g.order, num_dilations) == (81, self.EXPECTED[name][0])

    def test_tp_endomorphisms_form_the_ring(self, order_nine):
        name, plane, g, _ = order_nine
        start = time.perf_counter()
        tp = enumerate_tp_endomorphisms(plane, g)
        report = check_ring_axioms(plane, g, tp)
        assert time.perf_counter() - start < 2
        assert len(tp) == self.EXPECTED[name][1]
        for axiom in report.AXIOM_NAMES:
            assert report.axioms[axiom] == (True, None)

    def test_default_bound_counts_end(self, order_nine, tmp_path, capsys):
        """At the default bound both commands count the 3^16 maps of End
        from the element orders of Tr (count_endomorphisms) and check the
        ring, in well under the budget; walking every leaf ran for more than
        4 min.  |Tr| = q^2 needs no bound of its own."""
        name = order_nine[0]
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(ORDER_NINE[name]()))
        start = time.perf_counter()
        assert main(["endo", str(path), "--trace-preserving", "--check-ring"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["num_endomorphisms"], results["num_tp_endomorphisms"]) == (
            3**16, self.EXPECTED[name][1],
        )
        assert results["ring"]["all_pass"]
        assert main(["verify-all", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["num_endomorphisms"] == 3**16
        assert [t["passed"] for t in results["theorems"]] == [True] * 12
        assert time.perf_counter() - start < 5

    def test_group_bound_holds(self, order_nine):
        """A translation other than the identity fixes no point, so Tr acts
        freely on the q^2 points and |Tr| divides q^2: the order bound of
        the CLI, 13, bounds |Tr| by 169, and End and TP need no bound of
        their own."""
        _, plane, g, _ = order_nine
        q = len(plane.lines[0])
        assert all(f.is_identity or not f.fixed_points for f in g.elements)
        assert (q * q) % g.order == 0
