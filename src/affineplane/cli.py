"""Command-line front end.

Subcommands: build, check, groups, endo, verify-all.  Each emits one
structured JSON report on stdout (or to --out) and a short human summary
on stderr.  Exit codes: 0 every check passed, 1 a mathematical check
failed, 2 usage, input or output error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext, suppress
from itertools import chain

from . import __version__
from .errors import AffinePlaneError, MalformedDocument, OrderTooLarge
from .incidence import load_plane, parallel_partition, verify_axioms

# Each command imports the stages it runs in its body: only `build` loads
# builder, `check` and `build` load no stage module, `groups` loads no endo.

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
WRITE_BATCH = 1 << 14
# Input-size bounds, checked right before the stage each guards; the library takes none
DEFAULT_MAX_ORDER = 13
DEFAULT_MAX_GROUP = 49
# endo --dump lists |End| tables of |Tr| entries each: at most this many entries
# (AG(2,4) lists 65,536 x 16); the order-9 planes' 3^16 x 81 would exhaust memory
MAX_DUMP_ENTRIES = 1 << 22


def _bound(text: str) -> int:
    """argparse type of --max-order and --max-group: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


# flag -> (environment variable, default, help)
BOUNDS = {
    "--max-order": ("AFFINEPLANE_MAX_ORDER", DEFAULT_MAX_ORDER, "largest plane order to enumerate"),
    "--max-group": ("AFFINEPLANE_MAX_GROUP", DEFAULT_MAX_GROUP, "largest group order for End"),
}


def _report(command: str, plane_summary: dict, results: dict, status: str) -> dict:
    return {"tool_version": __version__, "command": command, "plane_summary": plane_summary,
            "results": results, "status": status}


class _Numerals(dict):
    """int -> its JSON numeral, built once per report."""

    def __missing__(self, i: int) -> str:
        self[i] = text = int.__repr__(i)
        return text


def _chunks(o, newline: str, numerals: _Numerals):
    """The text of json.dumps(o, indent=2, sort_keys=True) at the depth whose
    line break is newline (dict keys are str), in chunks: one per key, scalar
    and bracket, and one per non-empty list or tuple of exact ints."""
    inner = newline + "  "
    if isinstance(o, (list, tuple)) and set(map(type, o)) == {int}:  # bool is no exact int
        yield f"[{inner}{(',' + inner).join(map(numerals.__getitem__, o))}{newline}]"
    elif isinstance(o, dict) and o:
        opener = "{"
        for key in sorted(o):
            yield f"{opener}{inner}{json.dumps(key)}: "
            yield from _chunks(o[key], inner, numerals)
            opener = ","
        yield newline + "}"
    elif isinstance(o, (list, tuple)) and o:
        opener = "["
        for item in o:
            yield opener + inner
            yield from _chunks(item, inner, numerals)
            opener = ","
        yield newline + "]"
    else:  # a scalar, {}, [] or ()
        yield json.dumps(o)


def _text(document: dict):
    return chain(_chunks(document, "\n", _Numerals()), ("\n",))


def render_report(command: str, plane_summary: dict, results: dict, status: str) -> str:
    """The report text that _finish writes."""
    return "".join(_text(_report(command, plane_summary, results, status)))


class _OutputError(Exception):
    """The OSError that writing a report raised: exit 2, but no input error."""


def _write(document: dict, out_path: str | None) -> None:
    """Write the text of document to out_path, or stdout when None, in writes of
    about WRITE_BATCH characters (-u and PYTHONUNBUFFERED make stdout write-through)."""
    try:
        with open(out_path, "w") if out_path else nullcontext(sys.stdout) as fh:
            batch, size = [], 0
            for chunk in _text(document):
                batch.append(chunk)
                size += len(chunk)
                if size >= WRITE_BATCH:
                    fh.write("".join(batch))
                    batch, size = [], 0
            fh.write("".join(batch))
            fh.flush()  # a stdout that fails fails here, not at exit
    except OSError as exc:
        if out_path is None:  # drop what stdout holds: its flush at exit would fail again
            with suppress(OSError):
                sys.stdout.close()
        raise _OutputError(exc) from exc


def _check_out(path: str) -> None:
    """Raise, before any work, the OSError open(path, "w") gives for a
    directory path or a missing parent directory."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _load_verified_summary(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except (RecursionError, ValueError) as exc:
            # ValueError covers bad JSON, bad UTF-8 and an integer literal
            # over the int-to-str digit limit; RecursionError, deep nesting
            raise MalformedDocument(str(exc)) from exc
    plane = load_plane(document)
    report = verify_axioms(plane)
    summary = {"points": plane.num_points, "lines": plane.num_lines}
    if plane.verified:
        summary["parallel_classes"] = parallel_partition(plane).num_classes
    return plane, report, summary


def _translation_group(plane, max_order: int):
    """The stage shared by groups, endo and verify-all: Dil_0, the coset
    representatives (dilation_cosets), |Dil| and Tr, which is the
    translations among them."""
    from .collineation import dilation_cosets
    from .transgroup import build_group

    order = len(plane.lines[0])
    if order > max_order:
        raise OrderTooLarge(f"dilation enumeration bounded to order {max_order}, plane has {order}")
    stabiliser, representatives = dilation_cosets(plane)
    translations = [f for f in stabiliser + representatives if f.kind == "translation"]
    num_dilations = len(stabiliser) * (1 + len(representatives))
    return stabiliser, representatives, num_dilations, build_group(plane, translations)


def _check_group_bound(group, max_group: int) -> None:
    """Raise before the first End or TP search of a group over the bound."""
    if group.order > max_group:
        raise OrderTooLarge(
            f"endomorphism enumeration bounded to group order {max_group}, got {group.order}"
        )


def _finish(args, summary: dict, results: dict, passed: bool, note: str) -> int:
    """Write the report to --out or stdout, then the stderr note with {status} filled in."""
    status = "pass" if passed else "fail"
    _write(_report(args.command, summary, results, status), args.out)
    print(note.format(status=status), file=sys.stderr)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_build(args) -> int:
    from .builder import build_prime_plane

    try:
        if args.order > args.max_order:  # first: trial division of a large order would not end
            raise OrderTooLarge(f"order {args.order} exceeds the bound {args.max_order}")
        plane = build_prime_plane(args.order)
    except AffinePlaneError as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write(plane.to_document(), args.out)
    print(
        f"AG(2,{args.order}): {plane.num_points} points, {plane.num_lines} lines",
        file=sys.stderr,
    )
    return EXIT_PASS


def cmd_check(args) -> int:
    _, report, summary = _load_verified_summary(args.plane)
    results = {"axioms": report.to_dict()}
    return _finish(args, summary, results, report.all_pass, "axioms: {status}")


def cmd_groups(args) -> int:
    from .collineation import compose_cosets
    from .transgroup import check_abelian, check_composition_direction, check_conjugation

    plane, report, summary = _load_verified_summary(args.plane)
    if not report.all_pass:
        print("plane failed axiom verification; run `check` for details", file=sys.stderr)
        return EXIT_ERROR

    stabiliser, representatives, num_dilations, group = _translation_group(plane, args.max_order)
    results: dict = {"num_dilations": num_dilations, "num_translations": group.order}
    if args.dilations:
        dilations = compose_cosets(plane, stabiliser, representatives)
        results["dilations"] = [f.image for f in dilations]
    if args.translations:  # tuples, which JSON writes as lists
        results["translations"] = [f.image for f in group.elements]
        results["cayley_table"] = group.cayley

    checks = []
    if args.check_abelian:
        checks.append(check_abelian(group))
    if args.check_normal or args.check_directions:
        normal, conjugation = check_conjugation(group, stabiliser + representatives)
        if args.check_normal:
            checks.append(normal)
        if args.check_directions:
            checks.append(conjugation)
            checks.append(check_composition_direction(group))
    results["checks"] = [c.to_dict() for c in checks]

    note = f"{num_dilations} dilations, {group.order} translations; checks: {{status}}"
    return _finish(args, summary, results, all(c.passed for c in checks), note)


def cmd_endo(args) -> int:
    from . import endo

    plane, report, summary = _load_verified_summary(args.plane)
    if not report.all_pass:
        print("plane failed axiom verification; run `check` for details", file=sys.stderr)
        return EXIT_ERROR

    *_, group = _translation_group(plane, args.max_order)
    _check_group_bound(group, args.max_group)
    num_endomorphisms = endo.count_endomorphisms(group)
    if args.dump:  # else End is only counted: no table is kept
        if num_endomorphisms * group.order > MAX_DUMP_ENTRIES:
            raise OrderTooLarge(
                f"endomorphism listing bounded to {MAX_DUMP_ENTRIES} table entries, "
                f"got {num_endomorphisms} endomorphisms of group order {group.order}"
            )
        endomorphisms = endo.enumerate_endomorphisms(group)

    results: dict = {"group_order": group.order, "num_endomorphisms": num_endomorphisms}
    note = f"|End| = {num_endomorphisms}"
    all_pass = True
    if args.trace_preserving or args.check_ring:
        tp = endo.enumerate_tp_endomorphisms(plane, group)
        results["num_tp_endomorphisms"] = len(tp)
        note += f", |End^TP| = {len(tp)}"
        if args.dump:
            results["tp_endomorphisms"] = [list(a.table) for a in tp]
        if args.check_ring:
            ring = endo.check_ring_axioms(plane, group, tp, num_endomorphisms)
            results["ring"] = ring.to_dict()
            all_pass = ring.all_pass
    if args.dump:
        results["endomorphisms"] = [list(a.table) for a in endomorphisms]

    return _finish(args, summary, results, all_pass, note + "; {status}")


def cmd_verify_all(args) -> int:
    from . import endo, transgroup

    plane, report, summary = _load_verified_summary(args.plane)
    results: dict = {"axioms": report.to_dict()}
    if not report.all_pass:
        return _finish(args, summary, results, False, "axiom verification failed")

    stabiliser, representatives, num_dilations, group = _translation_group(plane, args.max_order)
    results.update(num_dilations=num_dilations, num_translations=group.order)
    normal, conjugation = transgroup.check_conjugation(group, stabiliser + representatives)
    abelian = transgroup.check_abelian(group).passed

    theorems = [
        ("affine_plane_axioms", report.all_pass),
        ("translations_form_group", True),  # build_group raises otherwise
        ("translation_group_abelian", abelian),
        ("translations_normal_in_dilations", normal.passed),
        ("conjugation_preserves_direction", conjugation.passed),
        (
            "composition_preserves_shared_direction",
            transgroup.check_composition_direction(group).passed,
        ),
    ]

    _check_group_bound(group, args.max_group)
    num_endomorphisms = endo.count_endomorphisms(group)
    tp = endo.enumerate_tp_endomorphisms(plane, group)
    results["num_endomorphisms"] = num_endomorphisms
    results["num_tp_endomorphisms"] = len(tp)

    ring = endo.check_ring_axioms(plane, group, tp, num_endomorphisms)
    results["ring"] = ring.to_dict()
    # End's closure theorems are settled by proof (check_abelian); tp is
    # every TP endomorphism (claim 3 of each search), so a TP sum or
    # composite is one iff it is listed
    theorems += [
        ("endomorphism_sums_are_endomorphisms", abelian),
        ("endomorphism_composites_are_endomorphisms", True),
        ("tp_sums_are_trace_preserving", ring.axioms["add_closure"][0]),
        ("tp_composites_are_trace_preserving", ring.axioms["mul_closure"][0]),
        ("tp_additive_abelian_group", all(
            ring.axioms[n][0]
            for n in ("add_closure", "add_associative", "add_identity",
                      "add_inverses", "add_commutative")
        )),
        ("tp_associative_unitary_ring", ring.all_pass),
    ]
    results["theorems"] = [{"name": n, "passed": p} for n, p in theorems]

    note = "\n".join(f"{'PASS' if p else 'FAIL'}  {n}" for n, p in theorems)
    return _finish(args, summary, results, all(p for _, p in theorems), note)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineplane",
        description="Construct finite affine planes and verify their "
        "translation-group and endomorphism-ring structure.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *bounds):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write the report to a file instead of stdout")
        for flag in bounds:
            env, default, text = BOUNDS[flag]
            # argparse parses a string default with the flag's type: a bad env value exits 2
            p.add_argument(flag, type=_bound, default=os.environ.get(env, str(default)),
                           help=f"{text} (default: ${env}, else {default})")
        return p

    p = command("build", cmd_build, "write the incidence document for AG(2,p)", "--max-order")
    p.add_argument("--order", type=int, required=True)

    p = command("check", cmd_check, "verify the affine plane axioms")
    p.add_argument("plane")

    p = command("groups", cmd_groups, "enumerate dilations and check group theorems", "--max-order")
    p.add_argument("plane")
    p.add_argument("--dilations", action="store_true", help="include dilation maps in the report")
    p.add_argument("--translations", action="store_true", help="include translations and Cayley table")
    p.add_argument("--check-abelian", action="store_true")
    p.add_argument("--check-normal", action="store_true")
    p.add_argument("--check-directions", action="store_true")

    both = ("--max-order", "--max-group")
    p = command("endo", cmd_endo, "enumerate endomorphisms of the translation group", *both)
    p.add_argument("plane")
    p.add_argument("--trace-preserving", action="store_true", dest="trace_preserving")
    p.add_argument("--check-ring", action="store_true", dest="check_ring")
    p.add_argument("--dump", action="store_true", help="include serialized tables")

    p = command("verify-all", cmd_verify_all, "run every check in dependency order", *both)
    p.add_argument("plane")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (MalformedDocument, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AffinePlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
