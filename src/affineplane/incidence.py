"""Finite incidence structures and the affine plane axioms.

Points and lines are dense integer ids.  A plane is loaded from a plain
document (``{"points": n, "lines": [[...], ...]}``), then checked against
the three affine axioms: unique joining line, unique parallel through an
external point, existence of a triangle.
"""

from __future__ import annotations

import warnings
from functools import reduce
from itertools import combinations, product
from operator import itemgetter, or_
from typing import NamedTuple, Optional

from .errors import MalformedDocument, NotVerified

KNOWN_FIELDS = {"points", "lines"}


class DirectionPartition(NamedTuple):
    """Parallel classes of a plane's lines.

    class_of[line] is the class id; classes[c] lists the lines of class c,
    ordered so that class ids increase with the smallest line id they contain.
    """

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


class AxiomCheck(NamedTuple):
    """One verdict, with a counterexample witness on failure."""

    passed: bool
    witness: Optional[tuple] = None

    def to_dict(self) -> dict:
        """The verdict as a report entry; every passed/witness entry is
        written here."""
        if self.witness is None:
            return {"passed": self.passed}
        return {"passed": self.passed, "witness": list(self.witness)}


class AxiomReport(NamedTuple):
    """Per-axiom outcome with a counterexample witness on failure."""

    unique_join: AxiomCheck
    unique_parallel: AxiomCheck
    triangle: AxiomCheck

    @property
    def all_pass(self) -> bool:
        return (
            self.unique_join.passed
            and self.unique_parallel.passed
            and self.triangle.passed
        )

    def to_dict(self) -> dict:
        return {name: check.to_dict() for name, check in zip(self._fields, self)}


class IncidencePlane:
    """A finite point/line incidence structure.

    Immutable after construction except for the axiom status set by
    ``verify_axioms`` and internally cached lookup tables.
    """

    def __init__(self, num_points: int, lines: list[frozenset[int]]):
        self.num_points = num_points
        self.lines: tuple[frozenset[int], ...] = tuple(lines)
        self.line_index: dict[frozenset[int], int] = {
            pts: i for i, pts in enumerate(self.lines)
        }
        through: list[list[int]] = [[] for _ in range(num_points)]
        for lid, pts in enumerate(self.lines):
            for p in pts:
                through[p].append(lid)
        self.lines_through: tuple[tuple[int, ...], ...] = tuple(
            tuple(ls) for ls in through
        )
        self.axiom_status: str = "unchecked"
        self._partition: Optional[DirectionPartition] = None
        self._join: Optional[list[list[int]]] = None
        self._parallel: Optional[list[list[int]]] = None
        self._firsts: Optional[list[itemgetter]] = None
        self._meet: Optional[list[list[Optional[int]]]] = None

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def verified(self) -> bool:
        return self.axiom_status == "verified"

    def require_verified(self) -> None:
        if not self.verified:
            raise NotVerified(
                "operation requires a plane that passed verify_axioms "
                f"(status: {self.axiom_status})"
            )

    def join_table(self) -> list[list[int]]:
        """joining-line lookup: join[p][q] = line id through p and q (p != q)."""
        self.require_verified()
        if self._join is None:
            n = self.num_points
            table = [[-1] * n for _ in range(n)]
            for lid, pts in enumerate(self.lines):
                members = sorted(pts)
                for i, p in enumerate(members):
                    for q in members[i + 1:]:
                        table[p][q] = lid
                        table[q][p] = lid
            self._join = table
        return self._join

    def parallel_table(self) -> list[list[int]]:
        """parallel-line lookup: parallel[c][p] = line of parallel class c through p.

        Each class covers every point exactly once on a verified plane, so
        parallel[class_of[l]][p] is the unique line through p parallel to
        l, l itself when p lies on it.  Proof: lines of one class are
        pairwise parallel (parallel_partition proves it), so at most one
        line of the class passes through p.  If p lies on l, that line is
        l.  Otherwise the unique-parallel axiom gives exactly one line m
        through p disjoint from l, and m is in l's class, so the class
        line through p is m.
        """
        self.require_verified()
        if self._parallel is None:
            partition = parallel_partition(self)
            table = [[-1] * self.num_points for _ in partition.classes]
            for lid, pts in enumerate(self.lines):
                row = table[partition.class_of[lid]]
                for p in pts:
                    row[p] = lid
            self._parallel = table
        return self._parallel

    def first_point_getters(self) -> list[itemgetter]:
        """first[c](t) = (t[s(0)], ..., t[s(n-1)]), s(p) the smallest point on
        p's line of class c: t is constant on each line of c iff first[c](t) == t."""
        if self._firsts is None:
            smallest = [min(pts) for pts in self.lines]
            self._firsts = [itemgetter(*[smallest[l] for l in row]) for row in self.parallel_table()]
        return self._firsts

    def meet_table(self) -> list[list[Optional[int]]]:
        """line-meet lookup: meet[l][m] = common point of l != m, None if parallel.

        Two distinct lines of a verified plane share at most one point,
        because two shared points would be joined by both lines.
        """
        self.require_verified()
        if self._meet is None:
            table: list[list[Optional[int]]] = [[None] * self.num_lines for _ in self.lines]
            for p, through in enumerate(self.lines_through):
                for l in through:
                    row = table[l]
                    for m in through:
                        if m != l:
                            row[m] = p
            self._meet = table
        return self._meet

    def to_document(self) -> dict:
        return {
            "points": self.num_points,
            "lines": [sorted(pts) for pts in self.lines],
        }


def load_plane(document: dict) -> IncidencePlane:
    """Parse an incidence document into an unchecked plane.

    Unknown top-level fields are tolerated with a warning; structural
    problems (bad indices, duplicate or empty lines) are rejected.
    """
    if not isinstance(document, dict):
        raise MalformedDocument("document must be a mapping")
    for key in document:
        if key not in KNOWN_FIELDS:
            warnings.warn(f"ignoring unknown field {key!r} in incidence document")
    if "points" not in document or "lines" not in document:
        raise MalformedDocument("document requires 'points' and 'lines' fields")
    num_points = document["points"]
    if not isinstance(num_points, int) or isinstance(num_points, bool) or num_points < 0:
        raise MalformedDocument("'points' must be a non-negative integer")
    raw_lines = document["lines"]
    if not isinstance(raw_lines, list):
        raise MalformedDocument("'lines' must be a list of point-index lists")

    lines: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for i, raw in enumerate(raw_lines):
        if not isinstance(raw, list) or not raw:
            raise MalformedDocument(f"line {i} must be a non-empty list of points")
        for p in raw:
            if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < num_points:
                raise MalformedDocument(f"line {i} has invalid point index {p!r}")
        pts = frozenset(raw)
        if len(pts) != len(raw):
            raise MalformedDocument(f"line {i} repeats a point")
        if pts in seen:
            raise MalformedDocument(f"line {i} duplicates an earlier line")
        seen.add(pts)
        lines.append(pts)
    return IncidencePlane(num_points, lines)


def verify_axioms(plane: IncidencePlane) -> AxiomReport:
    """Check the three affine plane axioms exhaustively.

    Failures are report content (with a witness), never exceptions.
    Updates ``plane.axiom_status``.

    Bit l of mask[p] is set iff p is on line l, and meets[l], the union
    of mask[x] over the points x of l, has bit m set iff l and m meet.
    So the lines joining p and q number popcount(mask[p] & mask[q]) and
    the parallels to l through p (lines on p missing l) number
    popcount(mask[p] & ~meets[l]): the lengths of the lists the axioms
    define, scanned in the same order, so the witnesses agree.

    Unique parallel is settled by counting when unique join holds, every
    line has k points and every point lies on k + 1 lines.  Take p off a
    line l.  The lines through p that meet l are the joins of p with the
    points x of l, and distinct points give distinct joins: if join(p, x)
    = join(p, y), x != y, that line joins x and y, so it is l by unique
    join, and p is on l.  So p lies on |l| lines that meet l and on
    deg(p) - |l| = (k + 1) - k = 1 parallel to it, for every such (p, l):
    the scan would find nothing.  In every other case the (p, l) scan
    runs, so the witness is the same.

    The triangle axiom is settled by pairs, not triples: p, q, r are
    collinear iff r lies on a common line of p and q, so a non-collinear
    triple exists iff for some pair p < q the points of its common lines,
    with p and q, are not all n points (r off them, sorted with p and q,
    is the triple).  The witness names no triple, so the report is the
    same, after O(n^2) pair steps instead of O(n^3) triples.
    """
    n = plane.num_points
    mask = [sum(1 << lid for lid in through) for through in plane.lines_through]
    points_of = [sum(1 << p for p in pts) for pts in plane.lines]

    unique_join = AxiomCheck(True)
    for p, q in combinations(range(n), 2):
        joins = (mask[p] & mask[q]).bit_count()
        if joins != 1:
            unique_join = AxiomCheck(False, (p, q, joins))
            break

    unique_parallel = AxiomCheck(True)
    sizes = {len(pts) for pts in plane.lines}
    degrees_less_one = {len(through) - 1 for through in plane.lines_through}
    if not (unique_join.passed and len(sizes) == 1 and degrees_less_one == sizes):
        meets = [reduce(or_, [mask[p] for p in pts]) for pts in plane.lines]
        for p, (lid, meets_l) in product(range(n), enumerate(meets)):
            parallels = (mask[p] & ~meets_l).bit_count()
            if not mask[p] >> lid & 1 and parallels != 1:
                unique_parallel = AxiomCheck(False, (p, lid, parallels))
                break

    triangle = AxiomCheck(False, ("no non-collinear point triple",))
    everyone = (1 << n) - 1
    for p, q in combinations(range(n), 2):
        covered = 1 << p | 1 << q
        for lid in plane.lines_through[p]:
            if mask[q] >> lid & 1:
                covered |= points_of[lid]
        if covered != everyone:
            triangle = AxiomCheck(True)
            break

    report = AxiomReport(unique_join, unique_parallel, triangle)
    plane.axiom_status = "verified" if report.all_pass else "failed"
    return report


def parallel_partition(plane: IncidencePlane) -> DirectionPartition:
    """Split the lines into parallel classes, read from the pencil at point 0.

    Each line l goes with the line of lines_through[0] parallel to it:
    l itself when 0 lies on l, else the one pencil line disjoint from l.

    Proof, on a verified plane.  By the unique-parallel axiom exactly one
    line through 0 is parallel to l (when 0 lies on l, every other line
    through 0 meets l at 0).  Parallelism is an equivalence: take l and k
    both parallel to m, all three distinct; if l and k met at p, p would
    be off m, and l and k two parallels to m through p.  The pencil lines
    meet at 0, so they lie in distinct classes, one in each.  So two lines
    share a class iff they share their pencil line.

    Classes are numbered by their smallest line id.  Cost: O(L.q)
    isdisjoint calls for L lines of q points.
    """
    plane.require_verified()
    if plane._partition is None:
        pencil = [(m, plane.lines[m]) for m in plane.lines_through[0]]
        groups: dict[int, list[int]] = {}
        for l, pts in enumerate(plane.lines):
            key = l if 0 in pts else next(m for m, line in pencil if pts.isdisjoint(line))
            groups.setdefault(key, []).append(l)
        classes = tuple(sorted(tuple(g) for g in groups.values()))
        class_of = [0] * plane.num_lines
        for cid, members in enumerate(classes):
            for l in members:
                class_of[l] = cid
        plane._partition = DirectionPartition(tuple(class_of), classes)
    return plane._partition
