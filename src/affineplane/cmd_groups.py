"""The groups command: |Dil| and Tr of a plane, and the group checks asked for.

cli loads this module only for a groups line; the command imports each
stage where it runs it, so a line with no --dilations loads no
definitions, and one with neither --check-normal nor --check-directions
no conjugation pass.
"""

from .cli import EXIT_ERROR, _finish, _load_verified_summary, _translation_group
from .output import _note


def cmd_groups(args):
    from .transgroup import check_abelian

    plane, report, summary = _load_verified_summary(args.plane)
    if not report.all_pass:
        _note("plane failed axiom verification; run `check` for details")
        return EXIT_ERROR

    stabiliser, representatives, num_dilations, group = _translation_group(plane, args.max_order)
    results = {"num_dilations": num_dilations, "num_translations": group.order}
    if args.dilations:
        from .definitions import compose_cosets

        dilations = compose_cosets(plane, stabiliser, representatives)
        results["dilations"] = [f.image for f in dilations]
    if args.translations:  # tuples, which JSON writes as lists
        results["translations"] = [f.image for f in group.elements]
        results["cayley_table"] = group.cayley

    checks = []
    if args.check_abelian:
        checks.append(check_abelian(group))
    if args.check_normal or args.check_directions:
        from .conjugation import (
            _dilation_generators, check_composition_direction, check_conjugation,
        )

        normal, conjugation = check_conjugation(
            group, _dilation_generators(stabiliser, representatives, group))
        if args.check_normal:
            checks.append(normal)
        if args.check_directions:
            checks.append(conjugation)
            checks.append(check_composition_direction(group))
    results["checks"] = [c.to_dict() for c in checks]

    note = f"{num_dilations} dilations, {group.order} translations; checks: {{status}}"
    return _finish(args, summary, results, all(c.passed for c in checks), note)
