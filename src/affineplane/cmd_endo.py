"""The endo command: |End| of Tr, and the TP maps and their ring when asked.

cli loads this module only for an endo line, which loads no conjugation
pass and no definitions, and no End search but with --dump or on a plane
whose End or TP maps cannot be read without one (endo.count_endomorphisms,
endo.tp_endomorphisms).
"""

from .cli import EXIT_ERROR, _check_dump, _finish, _load_verified_summary, _translation_group
from .output import _note


def cmd_endo(args):
    from . import endo

    plane, report, summary = _load_verified_summary(args.plane)
    if not report.all_pass:
        _note("plane failed axiom verification; run `check` for details")
        return EXIT_ERROR

    stabiliser, *_, group = _translation_group(plane, args.max_order)
    num_endomorphisms = endo.count_endomorphisms(group)
    if args.dump:  # else End is only counted: no table is kept
        _check_dump(num_endomorphisms, group.order)
        endomorphisms = endo.enumerate_endomorphisms(group)

    results = {"group_order": group.order, "num_endomorphisms": num_endomorphisms}
    note = f"|End| = {num_endomorphisms}"
    all_pass = True
    if args.trace_preserving or args.check_ring:
        tp = endo.tp_endomorphisms(plane, group, stabiliser)
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
