"""Seeded fuzz test of the input and exit-code contract.

Mutants of the AG(2,2) and AG(2,3) incidence documents (dropped lines,
merged lines, points swapped between lines, values replaced by junk)
go through every plane command via main().  Each run must exit 0, 1 or
2, let no exception escape, write no report when it exits 2, and finish
within TIME_BOUND_S.  The junk values are wrong types and bad indices,
not large sizes: the time of a document with a huge 'points' field
grows linearly with it, an open defect this test does not cover.
"""

import json
import random
import time

import pytest

from affineplane import build_prime_plane
from affineplane.cli import main

SEED = 20200320
MUTANTS_PER_PLANE = 30
TIME_BOUND_S = 5.0
COMMANDS = ("check", "groups", "endo", "verify-all")
JUNK = (None, True, False, -1, 2.5, "0", "", [], {}, [[]], [0, 0], 99)


def _lines(doc):
    """The document's lines, or None if a structural mutation cannot act on them."""
    lines = doc["lines"]
    if isinstance(lines, list) and len(lines) >= 2 and all(
        isinstance(line, list) and line for line in lines
    ):
        return lines
    return None


def drop_line(doc, rng):
    if lines := _lines(doc):
        lines.pop(rng.randrange(len(lines)))


def merge_lines(doc, rng):
    if lines := _lines(doc):
        i, j = sorted(rng.sample(range(len(lines)), 2))
        b = lines.pop(j)
        lines[i] = lines[i] + [q for q in b if q not in lines[i]]


def swap_points(doc, rng):
    if lines := _lines(doc):
        a, b = rng.sample(lines, 2)
        i, j = rng.randrange(len(a)), rng.randrange(len(b))
        a[i], b[j] = b[j], a[i]


def junk_type(doc, rng):
    value = rng.choice(JUNK)
    target = rng.choice(("points", "lines", "line", "point"))
    lines = doc["lines"]
    if target == "points":
        doc["points"] = value
        return
    if target == "lines" or not isinstance(lines, list) or not lines:
        doc["lines"] = value
        return
    k = rng.randrange(len(lines))
    if target == "line" or not isinstance(lines[k], list) or not lines[k]:
        lines[k] = value
    else:
        lines[k][rng.randrange(len(lines[k]))] = value


MUTATIONS = (drop_line, merge_lines, swap_points, junk_type)


def mutants(p, count, rng):
    for _ in range(count):
        doc = build_prime_plane(p).to_document()
        for mutate in rng.choices(MUTATIONS, k=rng.randint(1, 3)):
            mutate(doc, rng)
        yield doc


@pytest.mark.parametrize("p", [2, 3])
def test_mutated_documents_keep_the_exit_code_contract(tmp_path, capsys, p):
    rng = random.Random(SEED + p)
    codes = set()
    for n, doc in enumerate(mutants(p, MUTANTS_PER_PLANE, rng)):
        path = tmp_path / f"mutant{n}.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            start = time.perf_counter()
            try:
                code = main([command, str(path)])
            except Exception as exc:  # the contract: no traceback for any input
                pytest.fail(f"{command} on {doc}: {exc!r}")
            elapsed = time.perf_counter() - start
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (command, doc)
            assert code != 2 or out == "", (command, doc)
            assert elapsed < TIME_BOUND_S, (command, doc, elapsed)
            codes.add(code)
    # the mutants reach the axiom checks, not only the document parser
    assert codes >= {1, 2}
