"""The traced run: each command replayed in-process with a span per library call.

A replay calls the public functions of incidence, builder, collineation,
transgroup, endo and cli in the order the CLI commands call them, and
renders the report with ``cli.render_report``; the caller compares that
text byte for byte with the report of the same command run as a
subprocess.  Spans are kept in memory and written once, at the end.

The replays deviate from the CLI in three places, so that the trace can
name the work: ``plane.join_table()`` is called in its own span before the
dilation search (which would otherwise build it lazily), and ``endo``
calls ``enumerate_dilations`` and filters the translations, which is
what ``enumerate_translations`` does, so that |Dil| can be counted.
``transgroup.generators`` is called once more than in the CLI, in its
own span, to record the rank.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("incidence", "builder", "collineation", "transgroup", "endo", "cli")


class Tracer:
    """Spans (name, start, end, parent index) and counts, held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def durations(self) -> tuple[dict[str, float], dict[str, float], float]:
        """Total time per span name, self time per layer, library time under commands."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        library = 0.0
        for name, start, end, parent in self.spans:
            total[name] += end - start
            self_time[name.split(".")[0]] += end - start
            if parent is not None:
                parent_name = self.spans[parent][0]
                self_time[parent_name.split(".")[0]] -= end - start
                if parent_name.startswith("cli."):
                    library += end - start
        return total, self_time, library

    def to_dict(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": n, "start": s - origin, "end": e - origin, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


def import_program(src: str):
    if src not in sys.path:
        sys.path.insert(0, src)
    from affineplane import builder, cli, collineation, endo, incidence, transgroup

    return {
        "incidence": incidence,
        "builder": builder,
        "collineation": collineation,
        "transgroup": transgroup,
        "endo": endo,
        "cli": cli,
    }


class Replay:
    """In-process, traced copies of the CLI commands the workloads run."""

    def __init__(self, modules: dict, tracer: Tracer):
        self.m = modules
        self.tr = tracer

    def build(self, order: int) -> None:
        with self.tr.span("builder.build"):
            self.m["builder"].build_prime_plane(order)
        self.tr.count("builder.planes", 1)

    def command(self, command: str, path: str) -> str:
        run = {"groups": self._groups, "endo": self._endo, "verify-all": self._verify_all}[command]
        with self.tr.span(f"cli.{command}"):
            return run(path)

    def _load(self, path: str):
        inc, tr = self.m["incidence"], self.tr
        with tr.span("incidence.load"):
            with open(path) as fh:
                document = json.load(fh)
            plane = inc.load_plane(document)
        with tr.span("incidence.verify"):
            report = inc.verify_axioms(plane)
        summary = {"points": plane.num_points, "lines": plane.num_lines}
        if plane.verified:
            with tr.span("incidence.partition"):
                summary["parallel_classes"] = inc.parallel_partition(plane).num_classes
        n, nl = plane.num_points, plane.num_lines
        tr.count("incidence.point_pairs", n * (n - 1) // 2)
        tr.count("incidence.line_pairs", nl * (nl - 1) // 2)
        if not report.all_pass:
            raise RuntimeError(f"{path}: plane failed axiom verification")
        return plane, report, summary

    def _group(self, plane):
        tr = self.tr
        with tr.span("incidence.join"):
            plane.join_table()
        with tr.span("collineation.dilations"):
            dilations = self.m["collineation"].enumerate_dilations(plane)
        translations = [f for f in dilations if f.kind == "translation"]
        k = len(plane.lines[0])
        tr.count("collineation.candidates", k * k * (k - 1))
        tr.count("collineation.dilations", len(dilations))
        tr.count("collineation.translations", len(translations))
        with tr.span("transgroup.build_group"):
            group = self.m["transgroup"].build_group(plane, translations)
        tr.count("transgroup.cayley_entries", group.order ** 2)
        return dilations, translations, group

    def _endomorphisms(self, plane, group):
        tg, en, tr = self.m["transgroup"], self.m["endo"], self.tr
        with tr.span("transgroup.generators"):
            rank = len(tg.generators(group))
        tr.count("transgroup.rank", rank)
        with tr.span("endo.enumerate"):
            endomorphisms = en.enumerate_endomorphisms(group)
        tr.count("endo.candidates", group.order ** rank)
        tr.count("endo.endomorphisms", len(endomorphisms))
        with tr.span("endo.tp"):
            tp = [a for a in endomorphisms if en.is_trace_preserving(plane, group, a)]
        tr.count("endo.tp", len(tp))
        return endomorphisms, tp

    def _ring(self, plane, group, tp, num_endomorphisms):
        with self.tr.span("endo.ring"):
            ring = self.m["endo"].check_ring_axioms(plane, group, tp, num_endomorphisms)
        self.tr.count("endo.ring_tuples", len(tp) ** 3)
        return ring

    def _conjugation_checks(self, group, dilations):
        tg, tr = self.m["transgroup"], self.tr
        with tr.span("transgroup.abelian"):
            abelian = tg.check_abelian(group)
        with tr.span("transgroup.normal"):
            normal = tg.check_normal_in_dilations(group, dilations)
        with tr.span("transgroup.direction"):
            conjugation = tg.check_conjugation_direction(group, dilations)
            composition = tg.check_composition_direction(group)
        tr.count("transgroup.conjugations", len(dilations) * group.order)
        return abelian, normal, conjugation, composition

    def _groups(self, path: str) -> str:
        plane, _, summary = self._load(path)
        dilations, translations, group = self._group(plane)
        results: dict = {
            "num_dilations": len(dilations),
            "num_translations": len(translations),
            "translations": [list(f.image) for f in group.elements],
            "cayley_table": [list(row) for row in group.cayley],
        }
        checks = self._conjugation_checks(group, dilations)
        results["checks"] = [c.to_dict() for c in checks]
        status = "pass" if all(c.passed for c in checks) else "fail"
        return self.m["cli"].render_report("groups", summary, results, status)

    def _endo(self, path: str) -> str:
        plane, _, summary = self._load(path)
        _, _, group = self._group(plane)
        endomorphisms, tp = self._endomorphisms(plane, group)
        ring = self._ring(plane, group, tp, len(endomorphisms))
        results = {
            "group_order": group.order,
            "num_endomorphisms": len(endomorphisms),
            "num_tp_endomorphisms": len(tp),
            "ring": ring.to_dict(),
        }
        status = "pass" if ring.all_pass else "fail"
        return self.m["cli"].render_report("endo", summary, results, status)

    def _verify_all(self, path: str) -> str:
        en, tr = self.m["endo"], self.tr
        plane, report, summary = self._load(path)
        dilations, translations, group = self._group(plane)
        abelian, normal, conjugation, composition = self._conjugation_checks(group, dilations)
        results: dict = {
            "axioms": report.to_dict(),
            "num_dilations": len(dilations),
            "num_translations": len(translations),
        }
        theorems = [
            ("affine_plane_axioms", report.all_pass),
            ("translations_form_group", True),
            ("translation_group_abelian", abelian.passed),
            ("translations_normal_in_dilations", normal.passed),
            ("conjugation_preserves_direction", conjugation.passed),
            ("composition_preserves_shared_direction", composition.passed),
        ]
        endomorphisms, tp = self._endomorphisms(plane, group)
        results["num_endomorphisms"] = len(endomorphisms)
        results["num_tp_endomorphisms"] = len(tp)

        def closed(maps, op, predicate) -> bool:
            with tr.span("endo.closure"):
                return all(predicate(op(group, a, b)) for a in maps for b in maps)

        def is_endo(alpha) -> bool:
            return en.is_endomorphism(group, alpha)

        def is_tp(alpha) -> bool:
            return en.is_trace_preserving(plane, group, alpha)

        sums_endo = closed(endomorphisms, en.add, is_endo)
        comps_endo = closed(endomorphisms, en.compose, is_endo)
        sums_tp = closed(tp, en.add, is_tp)
        comps_tp = closed(tp, en.compose, is_tp)
        tr.count("endo.closure_pairs", 2 * len(endomorphisms) ** 2 + 2 * len(tp) ** 2)
        ring = self._ring(plane, group, tp, len(endomorphisms))
        results["ring"] = ring.to_dict()
        theorems += [
            ("endomorphism_sums_are_endomorphisms", sums_endo),
            ("endomorphism_composites_are_endomorphisms", comps_endo),
            ("tp_sums_are_trace_preserving", sums_tp),
            ("tp_composites_are_trace_preserving", comps_tp),
            ("tp_additive_abelian_group", all(
                ring.axioms[n][0]
                for n in ("add_closure", "add_associative", "add_identity",
                          "add_inverses", "add_commutative")
            )),
            ("tp_associative_unitary_ring", ring.all_pass),
        ]
        results["theorems"] = [{"name": n, "passed": p} for n, p in theorems]
        status = "pass" if all(p for _, p in theorems) else "fail"
        return self.m["cli"].render_report("verify-all", summary, results, status)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, outcomes: list, startup_runs: list[float]) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    total, self_time, library = tracer.durations()
    c = tracer.counts
    dilations_s = total["collineation.dilations"]
    conjugation_s = total["transgroup.normal"] + total["transgroup.direction"]
    metrics = {
        "incidence.load_s": (total["incidence.load"], "s"),
        "incidence.verify_s": (total["incidence.verify"], "s"),
        "incidence.join_s": (total["incidence.join"], "s"),
        "incidence.partition_s": (total["incidence.partition"], "s"),
        "incidence.point_pairs": (c["incidence.point_pairs"], "count"),
        "incidence.line_pairs": (c["incidence.line_pairs"], "count"),
        "builder.build_s": (total["builder.build"], "s"),
        "builder.planes": (c["builder.planes"], "count"),
        "collineation.dilations_s": (dilations_s, "s"),
        "collineation.candidates": (c["collineation.candidates"], "count"),
        "collineation.dilations": (c["collineation.dilations"], "count"),
        "collineation.translations": (c["collineation.translations"], "count"),
        "collineation.yield": (_rate(c["collineation.dilations"], c["collineation.candidates"]), "ratio"),
        "collineation.candidates_per_s": (_rate(c["collineation.candidates"], dilations_s), "1/s"),
        "transgroup.build_group_s": (total["transgroup.build_group"], "s"),
        "transgroup.cayley_entries": (c["transgroup.cayley_entries"], "count"),
        "transgroup.abelian_s": (total["transgroup.abelian"], "s"),
        "transgroup.normal_s": (total["transgroup.normal"], "s"),
        "transgroup.direction_s": (total["transgroup.direction"], "s"),
        "transgroup.conjugations": (c["transgroup.conjugations"], "count"),
        "transgroup.conjugations_per_s": (_rate(c["transgroup.conjugations"], conjugation_s), "1/s"),
        "transgroup.generators_s": (total["transgroup.generators"], "s"),
        "transgroup.rank": (c["transgroup.rank"], "count"),
        "endo.enumerate_s": (total["endo.enumerate"], "s"),
        "endo.candidates": (c["endo.candidates"], "count"),
        "endo.endomorphisms": (c["endo.endomorphisms"], "count"),
        "endo.candidates_per_s": (_rate(c["endo.candidates"], total["endo.enumerate"]), "1/s"),
        "endo.tp_s": (total["endo.tp"], "s"),
        "endo.tp": (c["endo.tp"], "count"),
        "endo.closure_s": (total["endo.closure"], "s"),
        "endo.closure_pairs": (c["endo.closure_pairs"], "count"),
        "endo.closure_pairs_per_s": (_rate(c["endo.closure_pairs"], total["endo.closure"]), "1/s"),
        "endo.ring_s": (total["endo.ring"], "s"),
        "endo.ring_tuples": (c["endo.ring_tuples"], "count"),
        "cli.startup_s": (statistics.median(startup_runs), "s"),
        "cli.overhead_s": (sum(o.wall for o in outcomes) - library, "s"),
        "cli.report_bytes": (sum(len(o.stdout) for o in outcomes), "B"),
        "cli.cpu_s": (sum(o.cpu for o in outcomes), "s"),
        "cli.commands": (len(outcomes), "count"),
        "cli.traced_s": (sum(v for k, v in total.items() if k.startswith("cli.")), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_time[layer], "s")
    return metrics
