"""From the translation group to the ring of trace-preserving endomorphisms.

Enumerates all endomorphisms of the translation group of AG(2,5),
filters the trace-preserving ones, and verifies that they form an
associative unitary ring whose tables match arithmetic mod 5.
"""

from affineplane import (
    add,
    build_group,
    build_prime_plane,
    check_ring_axioms,
    compose,
    enumerate_dilations,
    enumerate_endomorphisms,
    enumerate_tp_endomorphisms,
    inversion_endo,
    scalar_labeling,
    unit_endo,
    zero_endo,
)

plane = build_prime_plane(5)
translations = [f for f in enumerate_dilations(plane) if f.kind == "translation"]
group = build_group(plane, translations)
print(f"translation group order: {group.order}")

endomorphisms = enumerate_endomorphisms(group)
tp = enumerate_tp_endomorphisms(plane, group)
print(f"|End|    = {len(endomorphisms)}")
print(f"|End^TP| = {len(tp)}")

zero, unit, phi = zero_endo(group), unit_endo(group), inversion_endo(group)
print(f"\nzero table starts {zero.table[:6]}...")
print(f"unit table starts {unit.table[:6]}...")
print(f"inversion is its own inverse: {compose(group, phi, phi).table == unit.table}")

ring = check_ring_axioms(plane, group, tp, len(endomorphisms))
print("\nring axiom checks:")
for name in ring.AXIOM_NAMES:
    passed, _ = ring.axioms[name]
    print(f"  {name:18s} {'pass' if passed else 'FAIL'}")
print(f"multiplication commutative (informational): {ring.mul_commutative}")

labels = scalar_labeling(group, tp)
print(f"\nscalar labels (k means the k-fold sum of the unit): {labels}")
order = {a.table: i for i, a in enumerate(tp)}
print("addition table in those labels:")
for i in range(len(tp)):
    row = [labels[order[add(group, tp[i], tp[j]).table]] for j in range(len(tp))]
    print("  " + " ".join(map(str, row)))
print("multiplication table:")
for i in range(len(tp)):
    row = [labels[order[compose(group, tp[i], tp[j]).table]] for j in range(len(tp))]
    print("  " + " ".join(map(str, row)))
