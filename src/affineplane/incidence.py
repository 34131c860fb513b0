"""Finite incidence structures and the affine plane axioms.

Points and lines are dense integer ids.  A plane is loaded from a plain
document (``{"points": n, "lines": [[...], ...]}``), then checked against
the three affine axioms: unique joining line, unique parallel through an
external point, existence of a triangle.
"""

import warnings
from collections import namedtuple
from functools import reduce
from itertools import combinations, product
from operator import itemgetter, or_

from .errors import MalformedDocument, NotVerified

KNOWN_FIELDS = {"points", "lines"}


class DirectionPartition(namedtuple("DirectionPartition", "class_of classes")):
    """Parallel classes of a plane's lines.

    class_of[line] is the class id; classes[c] lists the lines of class c,
    ordered so that class ids increase with the smallest line id they contain.
    """

    __slots__ = ()

    @property
    def num_classes(self):
        return len(self.classes)


class AxiomCheck(namedtuple("AxiomCheck", "passed witness", defaults=(None,))):
    """One verdict, with a counterexample witness (a tuple) on failure."""

    __slots__ = ()

    def to_dict(self):
        """The verdict as a report entry; every passed/witness entry is
        written here."""
        if self.witness is None:
            return {"passed": self.passed}
        return {"passed": self.passed, "witness": list(self.witness)}


class AxiomReport(namedtuple("AxiomReport", "unique_join unique_parallel triangle")):
    """Per-axiom outcome, an AxiomCheck each, with a counterexample witness on failure."""

    __slots__ = ()

    @property
    def all_pass(self):
        return (
            self.unique_join.passed
            and self.unique_parallel.passed
            and self.triangle.passed
        )

    def to_dict(self):
        return {name: check.to_dict() for name, check in zip(self._fields, self)}


class IncidencePlane:
    """A finite point/line incidence structure.

    lines is a tuple of frozensets of point ids in range(num_points),
    line_index maps each of those frozensets to its line id, and
    lines_through[p] is the tuple of the ids of the lines on p.
    Immutable after construction except for the axiom status set by
    ``verify_axioms`` and internally cached lookup tables.
    """

    def __init__(self, num_points, lines):
        self.num_points = num_points
        self.lines = tuple(lines)
        self.line_index = {pts: i for i, pts in enumerate(self.lines)}
        through = [[] for _ in range(num_points)]
        for lid, pts in enumerate(self.lines):
            for p in pts:
                through[p].append(lid)
        self.lines_through = tuple(tuple(ls) for ls in through)
        self.axiom_status = "unchecked"
        self._partition = None
        self._join_rows = {}
        self._parallel = None
        self._firsts = None
        self._masks = None

    @property
    def num_lines(self):
        return len(self.lines)

    @property
    def verified(self):
        return self.axiom_status == "verified"

    def require_verified(self):
        if not self.verified:
            raise NotVerified(
                "operation requires a plane that passed verify_axioms "
                f"(status: {self.axiom_status})"
            )

    def join_row(self, p):
        """join_row(p)[q] = line id through p and q, -1 at q = p: row p of
        join_table, read from the lines through p alone.

        On a verified plane each point q != p lies on exactly one line
        through p (unique join), so the pencil of p writes each entry of
        the row once, in O(n).  Kept per point: the dilation search reads
        three rows, not the n^2 table.
        """
        self.require_verified()
        row = self._join_rows.get(p)
        if row is None:
            row = [-1] * self.num_points
            for lid in self.lines_through[p]:
                for q in self.lines[lid]:
                    row[q] = lid
            row[p] = -1
            self._join_rows[p] = row
        return row

    def join_table(self):
        """joining-line lookup: join[p][q] = line id through p and q (p != q),
        -1 on the diagonal; row p is join_row(p).  No command reads it, so
        it keeps no list of its own: each call lists the kept rows."""
        self.require_verified()
        return [self.join_row(p) for p in range(self.num_points)]

    def parallel_table(self):
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

    def first_point_getters(self):
        """first[c](t) = (t[s(0)], ..., t[s(n-1)]), s(p) the smallest point on
        p's line of class c: t is constant on each line of c iff first[c](t) == t."""
        if self._firsts is None:
            smallest = [min(pts) for pts in self.lines]
            self._firsts = [itemgetter(*[smallest[l] for l in row]) for row in self.parallel_table()]
        return self._firsts

    def line_masks(self):
        """masks[l] = the points of line l as an int, bit p set iff p is on l.

        On a verified plane masks[l] & masks[m] holds the one common point
        of two lines that meet, none for two parallels and q for l = m,
        since two shared points would be joined by both lines.  Built once;
        verify_axioms reads it before the plane is verified.
        """
        if self._masks is None:
            self._masks = [sum(1 << p for p in pts) for pts in self.lines]
        return self._masks

    def to_document(self):
        return {
            "points": self.num_points,
            "lines": [sorted(pts) for pts in self.lines],
        }


def load_plane(document):
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

    lines = []
    seen = set()
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


def verify_axioms(plane):
    """Check the three affine plane axioms exhaustively: an AxiomReport.

    Failures are report content (with a witness), never exceptions.
    Updates ``plane.axiom_status``.

    Bit l of mask[p] is set iff p is on line l, and meets[l], the union
    of mask[x] over the points x of l, has bit m set iff l and m meet.
    So the lines joining p and q number popcount(mask[p] & mask[q]) and
    the parallels to l through p (lines on p missing l) number
    popcount(mask[p] & ~meets[l]): the lengths of the lists the axioms
    define, scanned in the same order, so the witnesses agree.

    Unique join is settled per point, in one OR of line masks and one
    addition per incidence, not per pair.  The lines through p all hold p, so each point
    q != p is joined to p by as many lines as it has in that pencil; the
    pencil's points other than p, counted with repeats, number
    S(p) = sum(|l| - 1).  Every q != p has exactly one join with p iff
    the pencil covers every point (each q has at least one) and S(p) =
    n - 1 (with every q covered, no q has two).  So unique join holds
    iff both hold at every p.  When they first fail, at p, every pair
    (x, y) with x < p has one join, as x passed; the old pair scan, in
    its order, would pass every pair before (p, p + 1) and stop at the
    first (p, q) without one join, which exists, since p failed.  That
    scan runs from (p, p + 1), so the witness is the same.

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
    same, after O(n^2) pair steps instead of O(n^3) triples.  A line
    that holds all n points holds every pair's points too, so the
    axiom fails at once, with no pair step.
    """
    n = plane.num_points
    mask = [sum(1 << lid for lid in through) for through in plane.lines_through]
    points_of = plane.line_masks()
    others_on = [len(pts) - 1 for pts in plane.lines]
    everyone = (1 << n) - 1

    unique_join = AxiomCheck(True)
    for p, through in enumerate(plane.lines_through):
        covered, count = 1 << p, 0
        for lid in through:
            covered |= points_of[lid]
            count += others_on[lid]
        if covered != everyone or count != n - 1:
            for q in range(p + 1, n):  # the pairs (p, q) in the old scan's order
                joins = (mask[p] & mask[q]).bit_count()
                if joins != 1:
                    unique_join = AxiomCheck(False, (p, q, joins))
                    break
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
    pairs = () if everyone in points_of else combinations(range(n), 2)
    for p, q in pairs:
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


def parallel_partition(plane):
    """Split the lines into parallel classes, read from the pencil at point 0:
    a DirectionPartition, kept on the plane.

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
        groups = {}
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
