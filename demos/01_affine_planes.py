"""Walk through building and inspecting small affine planes.

Builds AG(2,3), checks the three axioms, and explores joining lines,
parallels and the partition of lines into parallel classes.
"""

from affineplane import build_prime_plane, load_plane, parallel_partition, verify_axioms

# AG(2,3): 9 points laid out as (x, y) -> id x*3 + y
plane = build_prime_plane(3)
print(f"AG(2,3): {plane.num_points} points, {plane.num_lines} lines")

report = verify_axioms(plane)
print(f"unique joining line:     {report.unique_join.passed}")
print(f"unique parallel:         {report.unique_parallel.passed}")
print(f"triangle exists:         {report.triangle.passed}")

# the line through (0,0) and (1,1), i.e. point ids 0 and 4, from the join table
l = plane.join_table()[0][4]
print(f"\nline through 0 and 4: {sorted(plane.lines[l])}")

# the unique parallel to it through (0,1) = point 1, from the parallel table:
# row c holds the line of parallel class c through each point
part = parallel_partition(plane)
m = plane.parallel_table()[part.class_of[l]][1]
print(f"parallel through 1:   {sorted(plane.lines[m])}")
print(f"l and m share no point: {plane.lines[l].isdisjoint(plane.lines[m])}")

print(f"\n{part.num_classes} parallel classes:")
for cid, members in enumerate(part.classes):
    print(f"  class {cid}: lines {list(members)}")

# the same plane can come from a plain incidence document
doc = {"points": 4, "lines": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [1, 2]]}
small = load_plane(doc)
print(f"\nloaded 4-point plane verifies: {verify_axioms(small).all_pass}")
