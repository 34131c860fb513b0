"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every expected count here was frozen from an independent check:
brute force over all 24 point permutations (order 2), brute force over
all 256 self-map tables of the Klein group, and predicate re-validation
of every enumerated object.
"""

import itertools
import json
import subprocess
import sys
import time

import pytest

from affineplane import (
    GroupSelfMap,
    TranslationGroup,
    add,
    build_prime_plane,
    check_abelian,
    check_composition_direction,
    check_conjugation_direction,
    check_normal_in_dilations,
    check_ring_axioms,
    compose,
    enumerate_endomorphisms,
    inversion_endo,
    is_collineation,
    is_dilation,
    is_endomorphism,
    is_trace_preserving,
    is_translation,
    negate,
    parallel_partition,
    scalar_labeling,
    unit_endo,
    verify_axioms,
    zero_endo,
)
from affineplane.cli import main as cli_main


def report(criterion: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"{criterion} took {elapsed:.2f}s (budget {budget}s)"
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_1_structural_counts():
    start = time.perf_counter()
    for p in (2, 3, 5):
        plane = build_prime_plane(p)
        assert verify_axioms(plane).all_pass
        assert plane.num_points == p * p
        assert plane.num_lines == p * p + p
        assert parallel_partition(plane).num_classes == p + 1
    report("1 (AG(2,p) structure)", time.perf_counter() - start, 1.0)


def test_criterion_2_enumeration_counts(planes, dilations, translations):
    start = time.perf_counter()
    for p, n_dil, n_tr in ((2, 4, 4), (3, 18, 9), (5, 100, 25)):
        assert len(dilations[p]) == n_dil
        assert len(translations[p]) == n_tr
        for f in dilations[p]:
            assert is_dilation(planes[p], f.image)
        for f in translations[p]:
            assert is_translation(planes[p], f.image)
    # full brute force over all 24 permutations for order 2
    perms = list(itertools.permutations(range(4)))
    assert sum(is_collineation(planes[2], f) for f in perms) == 24
    brute_dil = {f for f in perms if is_dilation(planes[2], f)}
    assert brute_dil == {f.image for f in dilations[2]}
    assert {f for f in perms if is_translation(planes[2], f)} == {
        f.image for f in translations[2]
    }
    report("2 (enumeration counts)", time.perf_counter() - start, 10.0)


def test_criterion_3_translation_group_theorems(groups, dilations):
    start = time.perf_counter()
    for p in (2, 3, 5):
        g = groups[p]  # build_group already certifies closure and inverses
        assert g.order == p * p
        assert check_abelian(g).passed
        assert check_normal_in_dilations(g, dilations[p]).passed
        assert check_conjugation_direction(g, dilations[p]).passed
        assert check_composition_direction(g).passed
    report("3 (translation-group theorems)", time.perf_counter() - start, 10.0)


def test_criterion_4_endomorphism_counts(groups, endomorphisms):
    start = time.perf_counter()
    # oracle: every one of the 256 possible tables, filtered by the
    # homomorphism identity alone
    g2 = groups[2]
    brute = {
        t
        for t in itertools.product(range(4), repeat=4)
        if all(
            t[g2.cayley[i][j]] == g2.cayley[t[i]][t[j]]
            for i in range(4)
            for j in range(4)
        )
    }
    assert len(brute) == 16
    assert {a.table for a in endomorphisms[2]} == brute

    g3 = groups[3]
    assert len(endomorphisms[3]) == 81
    for a in endomorphisms[3]:
        assert all(
            a.table[g3.cayley[i][j]] == g3.cayley[a.table[i]][a.table[j]]
            for i in range(9)
            for j in range(9)
        )
    report("4 (endomorphism counts)", time.perf_counter() - start, 5.0)


def test_criterion_5_closure_theorems(planes, groups, endomorphisms, tp_endomorphisms):
    start = time.perf_counter()
    for p in (2, 3):
        g = groups[p]
        for a in endomorphisms[p]:
            for b in endomorphisms[p]:
                assert is_endomorphism(g, add(g, a, b))
                assert is_endomorphism(g, compose(g, a, b))
        for a in tp_endomorphisms[p]:
            for b in tp_endomorphisms[p]:
                assert is_trace_preserving(planes[p], g, add(g, a, b))
                assert is_trace_preserving(planes[p], g, compose(g, a, b))
    report("5 (closure lemmas/theorems)", time.perf_counter() - start, 5.0)


def test_criterion_6_ring_verification(planes, groups, tp_endomorphisms):
    start = time.perf_counter()
    for p in (2, 3, 5):
        tp = tp_endomorphisms[p]
        assert len(tp) == p
        assert check_ring_axioms(planes[p], groups[p], tp).all_pass
    for p in (2, 3):
        g, tp = groups[p], tp_endomorphisms[p]
        labels = scalar_labeling(g, tp)
        assert labels is not None and sorted(labels) == list(range(p))
        tables = [a.table for a in tp]
        for i in range(p):
            for j in range(p):
                assert labels[tables.index(add(g, tp[i], tp[j]).table)] == (
                    labels[i] + labels[j]
                ) % p
                assert labels[tables.index(compose(g, tp[i], tp[j]).table)] == (
                    labels[i] * labels[j]
                ) % p
    report("6 (unitary ring)", time.perf_counter() - start, 10.0)


def test_criterion_7_identities(groups, endomorphisms):
    start = time.perf_counter()
    for p in (2, 3):
        g = groups[p]
        zero, unit, phi = zero_endo(g), unit_endo(g), inversion_endo(g)
        assert compose(g, phi, phi).table == unit.table
        for a in endomorphisms[p]:
            assert add(g, a, zero).table == a.table
            assert add(g, a, negate(g, a)).table == zero.table
            assert compose(g, a, unit).table == a.table
            assert negate(g, a).table == compose(g, phi, a).table
    report("7 (identities)", time.perf_counter() - start, 2.0)


def test_criterion_8_negative_paths(tmp_path, capsys, planes, groups, tp_endomorphisms):
    start = time.perf_counter()
    # missing line: check exits 1 and reports the witness pair
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps({"points": 4, "lines": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3]]})
    )
    assert cli_main(["check", str(broken)]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["axioms"]["unique_join"]["witness"][:2] == [1, 2]

    # corrupted Cayley table: abelian check fails with the swapped pair
    g = groups[2]
    cayley = [list(r) for r in g.cayley]
    cayley[1][2] = (cayley[1][2] + 1) % g.order
    bad = TranslationGroup(g.elements, tuple(tuple(r) for r in cayley), g.inverse, g.direction_of)
    result = check_abelian(bad)
    assert not result.passed and result.witness == (1, 2)

    # direction-swapping endomorphism: valid endomorphism, fails preservation
    swap = GroupSelfMap((0, 2, 1, 3))
    assert is_endomorphism(groups[2], swap)
    assert not is_trace_preserving(planes[2], groups[2], swap)

    # unit removed from the trace-preserving set: mul_identity fails with witness
    unit = unit_endo(groups[3])
    truncated = [a for a in tp_endomorphisms[3] if a.table != unit.table]
    ring = check_ring_axioms(planes[3], groups[3], truncated)
    passed, witness = ring.axioms["mul_identity"]
    assert not passed and witness is not None

    # exit-code contract: 0 pass, 1 math failure, 2 input error
    good = tmp_path / "p2.json"
    assert cli_main(["build", "--order", "2", "--out", str(good)]) == 0
    assert cli_main(["check", str(good)]) == 0
    assert cli_main(["check", str(broken)]) == 1
    assert cli_main(["build", "--order", "4"]) == 2
    capsys.readouterr()
    report("8 (negative paths)", time.perf_counter() - start, 10.0)


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    plane = tmp_path / "p2.json"
    subprocess.run(
        [sys.executable, "-m", "affineplane", "build", "--order", "2",
         "--out", str(plane)],
        check=True,
        capture_output=True,
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "affineplane", "verify-all", str(plane)],
            check=True,
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    report("9 (determinism)", time.perf_counter() - start, 30.0)
