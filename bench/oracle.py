"""Checks each command report against facts computed apart from the program.

Nothing here is a stored copy of a report.  The expected values come
from the coordinates of the plane (bench.planes) and from algebra:

- AG(2,q) and the Hall plane have q^2 points, q^2 + q lines and q + 1
  parallel classes;
- the translations are the vector shifts x -> x + v, pushed through the
  document's relabelling, and compose as vectors add: |Tr| = q^2;
- |Dil| = q^2 * (|K| - 1) for the kernel K, GF(q) for AG(2,q) and GF(3)
  for the Hall plane of order 9;
- for q = p^k the translation group is (Z_p)^(2k), so |End| = p^((2k)^2);
- the trace-preserving endomorphisms are the kernel, a field: |End^TP| = |K|,
  every ring axiom holds and multiplication commutes;
- every plane axiom, ring axiom, group check and theorem that the command
  is specified to report is present, and nothing else: a check that goes
  missing fails like a check that fails.

``corruptions`` makes damaged copies of a report; ``check_report`` must
reject every one of them, which shows that each check can fail.
"""

from __future__ import annotations

import copy
import json

# The names each command is specified to report.
PLANE_AXIOMS = ("unique_join", "unique_parallel", "triangle")
RING_AXIOMS = (
    "add_closure", "add_associative", "add_identity", "add_inverses", "add_commutative",
    "mul_closure", "mul_associative", "left_distributive", "right_distributive", "mul_identity",
)
# groups --check-abelian --check-normal --check-directions
GROUP_CHECKS = ("abelian", "normal_in_dilations", "conjugation_direction", "composition_direction")
VERIFY_ALL_THEOREMS = (
    "affine_plane_axioms",
    "translations_form_group",
    "translation_group_abelian",
    "translations_normal_in_dilations",
    "conjugation_preserves_direction",
    "composition_preserves_shared_direction",
    "endomorphism_sums_are_endomorphisms",
    "endomorphism_composites_are_endomorphisms",
    "tp_sums_are_trace_preserving",
    "tp_composites_are_trace_preserving",
    "tp_additive_abelian_group",
    "tp_associative_unitary_ring",
)


class Expected:
    """The independently computed facts about one benchmark plane."""

    def __init__(self, plane, relabelling):
        q, n = plane.q, plane.num_points
        label, vadd = relabelling.label, plane.vadd
        self.summary = {"points": n, "lines": q * q + q, "parallel_classes": q + 1}
        self.num_translations = q * q
        self.num_dilations = q * q * (plane.kernel - 1)
        self.num_endomorphisms = plane.field.p ** ((2 * plane.field.k) ** 2)
        self.num_tp = plane.kernel
        self.vadd = vadd
        self.shift_vector: dict[tuple[int, ...], int] = {}
        for v in range(n):
            image = [0] * n
            for u in range(n):
                image[label[u]] = label[vadd[u][v]]
            self.shift_vector[tuple(image)] = v


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_translations(problems: list[str], results: dict, exp: Expected) -> None:
    images = [tuple(t) for t in results["translations"]]
    vectors = [exp.shift_vector.get(t) for t in images]
    if None in vectors or len(set(images)) != len(images) or len(images) != exp.num_translations:
        problems.append("translations are not exactly the coordinate shifts")
        return
    if images != sorted(images) or vectors[0] != 0:
        problems.append("translations are not in canonical order with the identity first")
    index_of = {v: i for i, v in enumerate(vectors)}
    table = results["cayley_table"]
    n = len(vectors)
    if len(table) != n or any(len(row) != n for row in table):
        problems.append("cayley_table has the wrong shape")
        return
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            if table[i][j] != index_of[exp.vadd[vi][vj]]:
                problems.append(f"cayley_table[{i}][{j}] is not vector addition")
                return


def _check_ring(problems: list[str], ring: dict, exp: Expected) -> None:
    _expect(problems, "ring.num_tp", ring["num_tp"], exp.num_tp)
    _expect(problems, "ring.num_endomorphisms", ring["num_endomorphisms"], exp.num_endomorphisms)
    _expect(problems, "ring.all_pass", ring["all_pass"], True)
    _expect(problems, "ring.mul_commutative", ring["mul_commutative"], True)
    _check_named(problems, "ring axiom", ring["axioms"], RING_AXIOMS)


def _check_named(problems: list[str], what: str, outcomes: dict, names: tuple[str, ...]) -> None:
    """Exactly ``names`` are reported, and every one passed."""
    _expect(problems, f"{what} names", sorted(outcomes), sorted(names))
    for name, outcome in outcomes.items():
        _expect(problems, f"{what} {name}", outcome["passed"], True)


def _check_listed(problems: list[str], what: str, items: list, names: tuple[str, ...]) -> None:
    _check_named(problems, what, {item["name"]: item for item in items}, names)
    _expect(problems, f"number of {what}s", len(items), len(names))


def check_report(command: str, text: str, exp: Expected) -> list[str]:
    """Every way the report disagrees with the expected facts; [] when none."""
    problems: list[str] = []
    try:
        report = json.loads(text)
        results = report["results"]
        _expect(problems, "command", report["command"], command)
        _expect(problems, "status", report["status"], "pass")
        _expect(problems, "plane_summary", report["plane_summary"], exp.summary)
        if command in ("groups", "verify-all"):
            _expect(problems, "num_translations", results["num_translations"], exp.num_translations)
            _expect(problems, "num_dilations", results["num_dilations"], exp.num_dilations)
        if command == "groups":
            _check_translations(problems, results, exp)
            _check_listed(problems, "check", results["checks"], GROUP_CHECKS)
        if command == "endo":
            _expect(problems, "group_order", results["group_order"], exp.num_translations)
        if command in ("endo", "verify-all"):
            _expect(problems, "num_endomorphisms", results["num_endomorphisms"], exp.num_endomorphisms)
            _expect(problems, "num_tp_endomorphisms", results["num_tp_endomorphisms"], exp.num_tp)
            _check_ring(problems, results["ring"], exp)
        if command == "verify-all":
            _check_named(problems, "plane axiom", results["axioms"], PLANE_AXIOMS)
            _check_listed(problems, "theorem", results["theorems"], VERIFY_ALL_THEOREMS)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems


def corruptions(command: str, text: str) -> list[tuple[str, str]]:
    """Damaged copies of a passing report, each of which must be rejected."""
    base = json.loads(text)
    edits = [("status flipped", lambda r: r.update(status="fail"))]
    if command == "groups":
        edits += [
            ("translation dropped", lambda r: r["results"]["translations"].pop()),
            ("dilation count changed", lambda r: r["results"].update(num_dilations=r["results"]["num_dilations"] + 1)),
            ("check flipped", lambda r: r["results"]["checks"][0].update(passed=False)),
            ("check removed", lambda r: r["results"]["checks"].pop(1)),
            ("cayley entries swapped", lambda r: r["results"]["cayley_table"][1].reverse()),
        ]
    if command in ("endo", "verify-all"):
        edits += [
            ("endomorphism count changed", lambda r: r["results"].update(num_endomorphisms=r["results"]["num_endomorphisms"] - 1)),
            ("ring axiom flipped", lambda r: r["results"]["ring"]["axioms"]["mul_associative"].update(passed=False)),
            ("ring axiom removed", lambda r: r["results"]["ring"]["axioms"].pop("left_distributive")),
        ]
    if command == "verify-all":
        edits += [
            ("theorem flipped", lambda r: r["results"]["theorems"][-1].update(passed=False)),
            ("closure theorem removed", lambda r: r["results"]["theorems"].pop(6)),
            ("plane axiom removed", lambda r: r["results"]["axioms"].pop("triangle")),
        ]
    out = []
    for label, edit in edits:
        damaged = copy.deepcopy(base)
        edit(damaged)
        out.append((label, json.dumps(damaged, indent=2, sort_keys=True) + "\n"))
    return out
