import ast
import functools
import pathlib

import pytest

from affineplane import (
    ClassifiedMap,
    TranslationGroup,
    build_group,
    build_prime_plane,
    enumerate_dilations,
    enumerate_endomorphisms,
    enumerate_tp_endomorphisms,
    load_plane,
    parallel_partition,
    verify_axioms,
)

AG22_DOC = {"points": 4, "lines": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [1, 2]]}

# GF(4) = {0, 1, t, t + 1} coded as 0..3 by the bits of c0 + c1*t, with
# t^2 = t + 1: addition is XOR, multiplication this table.
GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def ag24_document() -> dict:
    """AG(2,4): point (x, y) is 4*x + y; lines y = m*x + b, then x = c."""
    lines = [[4 * x + (GF4_MUL[m][x] ^ b) for x in range(4)] for m in range(4) for b in range(4)]
    lines += [[4 * c + y for y in range(4)] for c in range(4)]
    return {"points": 16, "lines": lines}


# GF(9) = GF(3)[i]/(i^2 + 1): a + b*i is the pair (a, b).
GF9 = [(a, b) for a in range(3) for b in range(3)]


def gf9_mul(u, v):
    (a, b), (c, d) = u, v
    return ((a * c - b * d) % 3, (a * d + b * c) % 3)


def spread_document(spread) -> dict:
    """The translation plane of a spread of GF(9)^2 = GF(3)^4.

    spread lists 10 components, each the 9 vectors (x, y) of a
    2-dimensional GF(3)-subspace, meeting pairwise in 0; the lines are
    their translates.  Point ((x0, x1), (y0, y1)) is 27*x0 + 9*x1 + 3*y0 + y1.
    """

    def code(x, y):
        return 27 * x[0] + 9 * x[1] + 3 * y[0] + y[1]

    def plus(u, v):
        return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3)

    lines = set()
    for component in spread:
        for x in GF9:
            for y in GF9:
                lines.add(tuple(sorted(code(plus(x, wx), plus(y, wy)) for wx, wy in component)))
    return {"points": 81, "lines": [list(line) for line in sorted(lines)]}


def slope_components(slopes):
    """The components y = m*x of the Desarguesian spread, m in slopes."""
    return [[(x, gf9_mul(m, x)) for x in GF9] for m in slopes]


def ag29_document() -> dict:
    """AG(2,9), from the Desarguesian spread: x = 0 and y = m*x, m in GF(9)."""
    return spread_document([[((0, 0), y) for y in GF9]] + slope_components(GF9))


def hall9_document() -> dict:
    """The Hall plane of order 9: the Desarguesian spread with its
    GF(3)-regulus (x = 0 and y = m*x for m in GF(3)) swapped for the
    opposite regulus, the subspaces GF(3)w x GF(3)w, w in GF(9)*/GF(3)*."""
    gf3 = [m for m in GF9 if m[1] == 0]
    spread = slope_components([m for m in GF9 if m[1] != 0])
    for w in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        spread.append([(gf9_mul(a, w), gf9_mul(b, w)) for a in gf3 for b in gf3])
    return spread_document(spread)


@functools.lru_cache(maxsize=None)
def projective_hall9() -> tuple[frozenset, ...]:
    """The projective completion of hall9_document(): each line gains the
    point 81 + c of its parallel class c, and the last line is the line
    at infinity through those ten points."""
    plane = load_plane(hall9_document())
    assert verify_axioms(plane).all_pass
    partition = parallel_partition(plane)
    n = plane.num_points
    lines = [line | {n + partition.class_of[l]} for l, line in enumerate(plane.lines)]
    return (*lines, frozenset(range(n, n + len(partition.classes))))


def dual_hall9_cut(point: int) -> dict:
    """An affine plane of order 9 that is no translation plane: the dual
    of the projective Hall plane, less the dual line of one point.

    The points are the projective lines not through point, in order, and
    each other projective point gives the line of those through it.  A
    point at infinity (81 to 90) leaves 72 dilations and 9 translations,
    all of one direction; an affine point leaves 2 dilations and the
    identity alone."""
    lines = projective_hall9()
    kept = [l for l, line in enumerate(lines) if point not in line]
    return {
        "points": len(kept),
        "lines": [[i for i, l in enumerate(kept) if q in lines[l]]
                  for q in range(len(lines)) if q != point],
    }


def identity_map(plane) -> ClassifiedMap:
    """The identity of plane, classified as a translation with no direction."""
    n = plane.num_points
    return ClassifiedMap(tuple(range(n)), "translation", frozenset(range(n)))


def corrupted_documents(document) -> dict:
    """Four loadable documents that break a plane of order at least 3:
    its first line dropped, its first two lines merged, the last point of
    its first line moved to the first point off that line, and an extra
    point on no line."""
    n, lines = document["points"], [list(line) for line in document["lines"]]
    first = lines[0]
    off = next(p for p in range(n) if p not in first)
    return {
        "line_dropped": {"points": n, "lines": lines[1:]},
        "lines_merged": {"points": n, "lines": [sorted(set(first) | set(lines[1]))] + lines[2:]},
        "point_moved": {"points": n, "lines": [first[:-1] + [off]] + lines[1:]},
        "isolated_point": {"points": n + 1, "lines": lines},
    }


def table_group(elements, mul) -> TranslationGroup:
    """A finite group as a TranslationGroup, from its elements and product.

    elements[0] must be the identity.  Element i acts by left
    multiplication, so its image is row i of the multiplication table, and
    the Cayley table of those images is the table itself.  There is no
    plane, so no element has a direction.
    """
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    cayley = tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)
    assert cayley[0] == tuple(range(len(elements))), "elements[0] is not the identity"
    return TranslationGroup(
        elements=tuple(ClassifiedMap(row, "translation", frozenset()) for row in cayley),
        cayley=cayley,
        inverse=tuple(row.index(0) for row in cayley),
        direction_of=(None,) * len(elements),
    )


@pytest.fixture(scope="session")
def p2():
    return build_prime_plane(2)


@pytest.fixture(scope="session")
def p3():
    return build_prime_plane(3)


@pytest.fixture(scope="session")
def p5():
    return build_prime_plane(5)


@pytest.fixture(scope="session")
def ag24():
    plane = load_plane(ag24_document())
    assert verify_axioms(plane).all_pass
    return plane


@pytest.fixture(scope="session")
def planes(p2, p3, p5):
    return {2: p2, 3: p3, 5: p5}


@pytest.fixture(scope="session")
def dilations(planes):
    return {p: enumerate_dilations(pl) for p, pl in planes.items()}


@pytest.fixture(scope="session")
def translations(dilations):
    return {
        p: [f for f in dil if f.kind == "translation"] for p, dil in dilations.items()
    }


@pytest.fixture(scope="session")
def groups(planes, translations):
    return {p: build_group(planes[p], translations[p]) for p in planes}


@pytest.fixture(scope="session")
def endomorphisms(groups):
    return {p: enumerate_endomorphisms(groups[p]) for p in (2, 3)}


@pytest.fixture(scope="session")
def tp_endomorphisms(planes, groups):
    return {p: enumerate_tp_endomorphisms(planes[p], groups[p]) for p in (2, 3, 5)}


def bench_lines() -> dict:
    """command -> argv after the plane, from bench/run.py's GROUPS, ENDO and VERIFY_ALL."""
    run_py = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"
    lines = {}
    for node in ast.parse(run_py.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("GROUPS", "ENDO", "VERIFY_ALL")):
            command, *flags = ast.literal_eval(node.value)
            lines[command] = flags
    return lines


# The lines that run a command in the tests, CI, bench/ and README.md, with
# PLANE for the plane file.  Each names a command and its flags in full,
# so cli._exact reads it without argparse (test_parser.py, test_startup.py).
PLANE = "plane.json"
CHECK_FLAGS = ["--check-abelian", "--check-normal", "--check-directions"]
RING_FLAGS = ["--trace-preserving", "--check-ring"]
COMMAND_LINES = [
    ["build", "--order", "2"],
    ["build", "--order", "3"],
    ["build", "--order", "4"],
    ["build", "--order", "5"],
    ["build", "--order", "7"],
    ["build", "--order", "17"],
    ["build", "--order", str(2**61 - 1)],
    ["build", "--order", "2", "--out", "p2.json"],
    ["build", "--order", "3", "--out", "p3.json"],
    ["build", "--order", "13", "--out", "ag213.json"],
    ["build", "--order", "31", "--max-order", "31", "--out", "ag231.json"],
    ["build", "--order", "47", "--max-order", "47", "--out", "ag247.json"],
    ["check", PLANE],
    ["groups", PLANE],
    ["groups", PLANE, "--translations"],
    ["groups", PLANE, "--translations", "--check-abelian"],
    ["groups", PLANE, "--check-normal"],
    ["groups", PLANE, "--check-directions"],
    ["groups", PLANE, "--check-normal", "--check-directions"],
    ["groups", PLANE, *CHECK_FLAGS],
    ["groups", PLANE, "--translations", *CHECK_FLAGS],
    ["groups", PLANE, "--dilations", *CHECK_FLAGS],
    ["groups", PLANE, "--dilations", "--translations"],
    ["groups", PLANE, "--dilations", "--translations", *CHECK_FLAGS],
    ["groups", PLANE, "--dilations", "--check-normal", "--check-directions"],
    ["groups", PLANE, "--dilations", "--check-normal", "--check-directions", "--out", "r.json"],
    ["groups", PLANE, "--max-order", "31", *CHECK_FLAGS],
    ["groups", PLANE, "--max-order", "0"],
    ["groups", PLANE, "--max-order", "2"],
    ["groups", PLANE, "--out", "r.json"],
    ["groups", PLANE, "--translations", "--out", "r.json"],
    ["endo", PLANE],
    ["endo", PLANE, "--dump"],
    ["endo", PLANE, "--trace-preserving"],
    ["endo", PLANE, *RING_FLAGS],
    ["endo", PLANE, "--trace-preserving", "--dump"],
    ["endo", PLANE, *RING_FLAGS, "--dump"],
    ["endo", PLANE, "--max-order", "3"],
    ["endo", PLANE, "--dump", "--out", "r.json"],
    ["endo", PLANE, *RING_FLAGS, "--max-order", "47"],
    ["verify-all", PLANE],
    ["verify-all", PLANE, "--max-order", "16"],
    ["verify-all", PLANE, "--max-order", "47"],
    ["verify-all", PLANE, "--out", "r.json"],
]
