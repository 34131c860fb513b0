"""Command-line front end.

Subcommands: build, check, groups, endo, verify-all.  Each emits one
structured JSON report on stdout (or to --out) and a short human summary
on stderr.  Exit codes: 0 every check passed, 1 a mathematical check
failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .builder import DEFAULT_MAX_ORDER, build_prime_plane
from .collineation import enumerate_dilations, enumerate_translations
from .endo import (
    DEFAULT_MAX_GROUP,
    add as endo_add,
    check_ring_axioms,
    compose as endo_compose,
    enumerate_endomorphisms,
    is_endomorphism,
    is_trace_preserving,
)
from .errors import AffinePlaneError, MalformedDocument
from .incidence import load_plane, parallel_partition, verify_axioms
from .transgroup import (
    build_group,
    check_abelian,
    check_composition_direction,
    check_conjugation,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def render_report(command: str, plane_summary: dict, results: dict, status: str) -> str:
    document = {
        "tool_version": __version__,
        "command": command,
        "plane_summary": plane_summary,
        "results": results,
        "status": status,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_verified_summary(path: str):
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    plane = load_plane(document)
    report = verify_axioms(plane)
    summary = {"points": plane.num_points, "lines": plane.num_lines}
    if plane.verified:
        summary["parallel_classes"] = parallel_partition(plane).num_classes
    return plane, report, summary


def cmd_build(args) -> int:
    try:
        plane = build_prime_plane(args.order, max_order=args.max_order)
    except AffinePlaneError as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    text = json.dumps(plane.to_document(), indent=2, sort_keys=True) + "\n"
    emit(text, args.out)
    print(
        f"AG(2,{args.order}): {plane.num_points} points, {plane.num_lines} lines",
        file=sys.stderr,
    )
    return EXIT_PASS


def cmd_check(args) -> int:
    plane, report, summary = _load_verified_summary(args.plane)
    status = "pass" if report.all_pass else "fail"
    results = {"axioms": report.to_dict()}
    emit(render_report("check", summary, results, status), args.out)
    print(f"axioms: {status}", file=sys.stderr)
    return EXIT_PASS if report.all_pass else EXIT_FAIL


def cmd_groups(args) -> int:
    plane, report, summary = _load_verified_summary(args.plane)
    if not report.all_pass:
        print("plane failed axiom verification; run `check` for details", file=sys.stderr)
        return EXIT_ERROR

    dilations = enumerate_dilations(plane, max_order=args.max_order)
    translations = [f for f in dilations if f.kind == "translation"]
    group = build_group(plane, translations)

    results: dict = {
        "num_dilations": len(dilations),
        "num_translations": len(translations),
    }
    if args.dilations:
        results["dilations"] = [list(f.image) for f in dilations]
    if args.translations:
        results["translations"] = [list(f.image) for f in group.elements]
        results["cayley_table"] = [list(row) for row in group.cayley]

    checks = []
    if args.check_abelian:
        checks.append(check_abelian(group))
    if args.check_normal or args.check_directions:
        normal, conjugation = check_conjugation(group, dilations)
        if args.check_normal:
            checks.append(normal)
        if args.check_directions:
            checks.append(conjugation)
            checks.append(check_composition_direction(group))
    results["checks"] = [c.to_dict() for c in checks]

    all_pass = all(c.passed for c in checks)
    status = "pass" if all_pass else "fail"
    emit(render_report("groups", summary, results, status), args.out)
    print(
        f"{len(dilations)} dilations, {len(translations)} translations; "
        f"checks: {status}",
        file=sys.stderr,
    )
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_endo(args) -> int:
    plane, report, summary = _load_verified_summary(args.plane)
    if not report.all_pass:
        print("plane failed axiom verification; run `check` for details", file=sys.stderr)
        return EXIT_ERROR

    translations = enumerate_translations(plane, max_order=args.max_order)
    group = build_group(plane, translations)
    endomorphisms = enumerate_endomorphisms(group, max_group=args.max_group)

    results: dict = {
        "group_order": group.order,
        "num_endomorphisms": len(endomorphisms),
    }
    all_pass = True
    if args.trace_preserving or args.check_ring:
        tp = [a for a in endomorphisms if is_trace_preserving(plane, group, a)]
        results["num_tp_endomorphisms"] = len(tp)
        if args.dump:
            results["tp_endomorphisms"] = [list(a.table) for a in tp]
        if args.check_ring:
            ring = check_ring_axioms(plane, group, tp, len(endomorphisms))
            results["ring"] = ring.to_dict()
            all_pass = ring.all_pass
    if args.dump:
        results["endomorphisms"] = [list(a.table) for a in endomorphisms]

    status = "pass" if all_pass else "fail"
    emit(render_report("endo", summary, results, status), args.out)
    print(
        f"|End| = {len(endomorphisms)}"
        + (f", |End^TP| = {results['num_tp_endomorphisms']}" if "num_tp_endomorphisms" in results else "")
        + f"; {status}",
        file=sys.stderr,
    )
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_verify_all(args) -> int:
    plane, report, summary = _load_verified_summary(args.plane)
    results: dict = {"axioms": report.to_dict()}
    if not report.all_pass:
        emit(render_report("verify-all", summary, results, "fail"), args.out)
        print("axiom verification failed", file=sys.stderr)
        return EXIT_FAIL

    dilations = enumerate_dilations(plane, max_order=args.max_order)
    translations = [f for f in dilations if f.kind == "translation"]
    group = build_group(plane, translations)
    results["num_dilations"] = len(dilations)
    results["num_translations"] = len(translations)
    normal, conjugation = check_conjugation(group, dilations)

    theorems = [
        ("affine_plane_axioms", report.all_pass),
        ("translations_form_group", True),  # build_group raises otherwise
        ("translation_group_abelian", check_abelian(group).passed),
        ("translations_normal_in_dilations", normal.passed),
        ("conjugation_preserves_direction", conjugation.passed),
        (
            "composition_preserves_shared_direction",
            check_composition_direction(group).passed,
        ),
    ]

    endomorphisms = enumerate_endomorphisms(group, max_group=args.max_group)
    tp = [a for a in endomorphisms if is_trace_preserving(plane, group, a)]
    results["num_endomorphisms"] = len(endomorphisms)
    results["num_tp_endomorphisms"] = len(tp)

    sums_endo = all(
        is_endomorphism(group, endo_add(group, a, b))
        for a in endomorphisms
        for b in endomorphisms
    )
    comps_endo = all(
        is_endomorphism(group, endo_compose(group, a, b))
        for a in endomorphisms
        for b in endomorphisms
    )
    sums_tp = all(
        is_trace_preserving(plane, group, endo_add(group, a, b)) for a in tp for b in tp
    )
    comps_tp = all(
        is_trace_preserving(plane, group, endo_compose(group, a, b))
        for a in tp
        for b in tp
    )
    ring = check_ring_axioms(plane, group, tp, len(endomorphisms))
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

    all_pass = all(p for _, p in theorems)
    status = "pass" if all_pass else "fail"
    emit(render_report("verify-all", summary, results, status), args.out)
    for name, passed in theorems:
        print(f"{'PASS' if passed else 'FAIL'}  {name}", file=sys.stderr)
    return EXIT_PASS if all_pass else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineplane",
        description="Construct finite affine planes and verify their "
        "translation-group and endomorphism-ring structure.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to a file instead of stdout")
        p.add_argument(
            "--max-order",
            type=int,
            default=_env_int("AFFINEPLANE_MAX_ORDER", DEFAULT_MAX_ORDER),
            help="largest plane order accepted for enumeration",
        )
        p.add_argument(
            "--max-group",
            type=int,
            default=_env_int("AFFINEPLANE_MAX_GROUP", DEFAULT_MAX_GROUP),
            help="largest translation-group order accepted for endomorphism search",
        )

    p = sub.add_parser("build", help="write the incidence document for AG(2,p)")
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="verify the affine plane axioms")
    p.add_argument("plane")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("groups", help="enumerate dilations/translations and check group theorems")
    p.add_argument("plane")
    p.add_argument("--dilations", action="store_true", help="include dilation maps in the report")
    p.add_argument("--translations", action="store_true", help="include translations and Cayley table")
    p.add_argument("--check-abelian", action="store_true")
    p.add_argument("--check-normal", action="store_true")
    p.add_argument("--check-directions", action="store_true")
    common(p)
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("endo", help="enumerate endomorphisms of the translation group")
    p.add_argument("plane")
    p.add_argument("--trace-preserving", action="store_true", dest="trace_preserving")
    p.add_argument("--check-ring", action="store_true", dest="check_ring")
    p.add_argument("--dump", action="store_true", help="include serialized tables")
    common(p)
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("verify-all", help="run every check in dependency order")
    p.add_argument("plane")
    common(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedDocument, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AffinePlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
