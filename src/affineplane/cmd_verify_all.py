"""The verify-all command: every theorem of the chain, in dependency order.

cli loads this module only for a verify-all line, which loads the End
search only on a plane whose End or TP maps cannot be read without one
(endo.count_endomorphisms, endo.tp_endomorphisms).
"""

from .cli import _finish, _load_verified_summary, _translation_group


def cmd_verify_all(args):
    from . import conjugation, endo, transgroup

    plane, report, summary = _load_verified_summary(args.plane)
    results = {"axioms": report.to_dict()}
    if not report.all_pass:
        return _finish(args, summary, results, False, "axiom verification failed")

    stabiliser, representatives, num_dilations, group = _translation_group(plane, args.max_order)
    results.update(num_dilations=num_dilations, num_translations=group.order)
    normal, direction = conjugation.check_conjugation(
        group, conjugation._dilation_generators(stabiliser, representatives, group))
    abelian = transgroup.check_abelian(group).passed

    theorems = [
        ("affine_plane_axioms", report.all_pass),
        ("translations_form_group", True),  # build_group raises otherwise
        ("translation_group_abelian", abelian),
        ("translations_normal_in_dilations", normal.passed),
        ("conjugation_preserves_direction", direction.passed),
        (
            "composition_preserves_shared_direction",
            conjugation.check_composition_direction(group).passed,
        ),
    ]

    num_endomorphisms = endo.count_endomorphisms(group)
    tp = endo.tp_endomorphisms(plane, group, stabiliser)
    results["num_endomorphisms"] = num_endomorphisms
    results["num_tp_endomorphisms"] = len(tp)

    ring = endo.check_ring_axioms(plane, group, tp, num_endomorphisms)
    results["ring"] = ring.to_dict()
    # End's closure theorems are settled by proof (check_abelian); tp is
    # every TP endomorphism (tp_endomorphisms, claim 3 of each search), so
    # a TP sum or composite is one iff it is listed
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
