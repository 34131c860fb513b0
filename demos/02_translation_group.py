"""Enumerate dilations and translations and verify the group facts.

Shows the dilations and translations of AG(2,3), the Cayley table of the
translation group, and the exhaustive checks: commutativity, normality
inside the dilations, and direction behaviour.
"""

from affineplane import (
    build_group,
    build_prime_plane,
    check_abelian,
    check_composition_direction,
    check_conjugation,
    enumerate_dilations,
    generators,
)

plane = build_prime_plane(3)

dilations = enumerate_dilations(plane)
translations = [f for f in dilations if f.kind == "translation"]
print(f"dilations:     {len(dilations)}")
print(f"translations:  {len(translations)}")
fixing = [f for f in dilations if f.kind == "dilation"]
print(f"dilations with a fixed point: {len(fixing)}, e.g. {fixing[0].image}")

group = build_group(plane, translations)
print(f"\ntranslation group of order {group.order}, Cayley table:")
for row in group.cayley:
    print("  " + " ".join(f"{k}" for k in row))

print(f"\ngenerators (greedy): {generators(group)}")
# one pass conjugates every translation by every dilation, for two checks
normal, conjugation = check_conjugation(group, dilations)
print(f"abelian:                        {check_abelian(group).passed}")
print(f"normal in dilations:            {normal.passed}")
print(f"conjugation keeps direction:    {conjugation.passed}")
print(f"composition keeps direction:    {check_composition_direction(group).passed}")

print("\ndirections (None = identity):")
for i, f in enumerate(group.elements):
    print(f"  element {i}: image {f.image}, direction {group.direction_of[i]}")
