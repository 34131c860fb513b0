"""The document decoder and the scalar writer against json, their oracle.

cli._decode reads a document with the scanner json.loads runs and leaves
every text it does not take whole to json.loads, so each text of a seeded
corpus, valid or mutated, must give json.loads's value or its exception,
type and message alike.  output._scalar writes a report's keys and
scalars, and must give json.dumps's text for each.  The check command
turns a decoding error into the line "input error: " and json's message.
"""

import json
import marshal
import os
import random
import subprocess
import sys

import pytest

from affineplane import build_prime_plane, cli, output
from affineplane.errors import AffinePlaneError
from affineplane.incidence import load_plane
from conftest import bench_lines, dual_hall9_cut

SRC = os.path.dirname(os.path.dirname(cli.__file__))

BOM = "\ufeff"
CHARACTERS = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
              "\u00a0", "\u2028", "\u2603", "\U0001f600", "\ud800", "\udfff"]


def random_text(rng):
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(6)))


def random_value(rng, depth=0):
    """A random JSON value: containers to depth 3, every scalar type."""
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.randrange(-10**6, 10**6)
    if kind == 2:
        return rng.choice([0, -1, 2**63, -(2**64) - 1, 10**100])
    if kind == 3:
        return rng.choice([0.0, -0.0, 1.5, -2.25e-7, 1e300, rng.random()])
    if kind in (4, 5):
        return random_text(rng)
    if kind in (6, 7):
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {random_text(rng): random_value(rng, depth + 1) for _ in range(rng.randrange(4))}


def valid_documents():
    rng = random.Random(35)
    documents = [json.dumps(build_prime_plane(3).to_document()),
                 json.dumps(build_prime_plane(2).to_document(), indent=2)]
    for _ in range(60):
        value = random_value(rng)
        documents.append(json.dumps(value, indent=rng.choice([None, 0, 2, "\t"]),
                                    ensure_ascii=rng.random() < 0.5))
    return documents


def corpus():
    """The seeded valid documents and their mutations, and the texts of
    json's edge cases."""
    rng = random.Random(1)
    texts = []
    for text in valid_documents():
        texts.append(text)
        texts += [text[:rng.randrange(len(text))] for _ in range(3)]  # truncations
        texts.append(BOM + text)
        texts += [text + " x", text + "{}", text + "]", text + "\x0c"]  # trailing data
        texts += [" \t\n\r" + text + "\r\n \t", "\u00a0" + text]  # whitespace, JSON's or not
    texts += [
        "", " ", "\n\t\r ", BOM, BOM + " {}",
        '{"points": NaN, "lines": []}', '{"points": 4, "lines": [[0, NaN]]}',
        "[Infinity, -Infinity, NaN]", "NaN", "-NaN", "nan", "Infinity ", "-Infinity",
        '"\\ud800"', '["\\udfff", "\\ud83d\\ude00", "\\ud83d"]', '{"\\udc00": 1}',
        '"a\x01b"', '"\\x"', '"\\u12"', "[1,]", '{"a" 1}', "{'a': 1}", "01", "1.", "-",
        "[" * 100_000 + "]" * 100_000, '{"a": ' * 50_000 + "1" + "}" * 50_000,
        "1" * 4300, "1" * 4301, '{"points": ' + "1" * 4301 + ', "lines": []}',
    ]
    return texts


def outcome(decode, text):
    """The value decode gives, as its type name and repr (NaN is no equal
    of itself), or the type name and message of what it raises."""
    try:
        value = decode(text)
    except (RecursionError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(value).__name__, repr(value)


# Reads a marshalled list of texts on stdin, decodes each as
# cli._load_verified_summary does, with cli._decode while json is not
# loaded and then, for a text _decode hands back, json.loads, unloading
# json again after each text, and writes whether each text was handed back
# and its outcome (as outcome gives it), marshalled, on stdout.
DECODER = """\
import marshal, sys
from affineplane import cli
outcomes = []
for text in marshal.loads(sys.stdin.buffer.read()):
    assert "json" not in sys.modules
    handed_back = False
    try:
        value = cli._decode(text)
        if value is text:
            import json

            handed_back = True
            value = json.loads(text)
    except (RecursionError, ValueError) as exc:
        outcomes.append((handed_back, type(exc).__name__, str(exc)))
    else:
        outcomes.append((handed_back, type(value).__name__, repr(value)))
    for name in [m for m in sys.modules if m == "json" or m.startswith("json.")]:
        del sys.modules[name]
sys.stdout.buffer.write(marshal.dumps(outcomes))
"""


def test_corpus_holds_every_kind_of_text():
    texts = corpus()
    kinds = {kind for kind, _ in (outcome(json.loads, text) for text in texts)}
    assert {"JSONDecodeError", "RecursionError", "dict", "list", "str", "float"} <= kinds
    if hasattr(sys, "set_int_max_str_digits"):  # the digit limit came in 3.11 and 3.10.7
        assert "ValueError" in kinds
    assert len(texts) > 700


def test_decode_is_json_loads(tmp_path):
    """Each text is decoded in a process where json is not loaded, as in a
    command: before Python 3.12 the scanner cannot raise json's errors there.
    _decode gives json.loads's value for a mapping, and hands every other
    text back, to json.loads, which raises its error or gives a value that
    is no mapping."""
    texts = corpus()
    result = subprocess.run([sys.executable, "-S", "-c", DECODER], input=marshal.dumps(texts),
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    decoded = marshal.loads(result.stdout)
    assert len(decoded) == len(texts)
    for text, (handed_back, *got) in zip(texts, decoded):
        expected = outcome(json.loads, text)
        assert tuple(got) == expected, text[:80]
        assert handed_back == (expected[0] != "dict"), text[:80]


# Runs `check` on [ nested d deep ] for each d in a range across Python's
# recursion limit, through cli.main in one process, with cli._decode as it
# is or replaced by json.loads, and prints each d and what check wrote on
# stderr.  Both runs call check from the same frame depth.
NESTED = """\
import contextlib, io, json, sys
from affineplane import cli
if sys.argv[1] == "json.loads":
    cli._decode = json.loads
for d in range(960, 1010):
    with open("nested.json", "w") as fh:
        fh.write("[" * d + "]" * d)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "nested.json"])
    print(d, code, err.getvalue(), end="")
"""


def test_deep_nesting_gets_the_error_of_json_loads(tmp_path):
    """Before Python 3.12 the scan of _decode sits fewer frames deep than
    that of json.loads, so a list nested within a few levels of the
    recursion limit decodes there; it is handed back to json.loads, which
    raises RecursionError, as it did when check read every document with
    json.loads, instead of load_plane's "document must be a mapping"."""
    runs = [subprocess.run([sys.executable, "-S", "-c", NESTED, decoder], cwd=tmp_path,
                           env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
            for decoder in ("_decode", "json.loads")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 50 and all(line.split()[1] == "2" for line in lines)
    messages = {line.split(" ", 2)[2] for line in lines}
    if sys.version_info < (3, 12):  # the limit falls within the range
        assert "input error: document must be a mapping" in messages
        assert any("maximum recursion depth exceeded" in m for m in messages)


@pytest.mark.parametrize("text", [
    BOM + "{}", '{"points": 4, "lines": []} x', '{"points": 4, "lines": [[0, NaN]]}', "",
    '{"points": 4, "lines": [[0', " \n", '["\\ud800"]', "[" * 100_000, '{"points" 4}',
    '{"points": 4, "lines": [], "name": "a\x01"}', '{"points": ' + "1" * 4301 + "}",
], ids=["bom", "trailing", "nan-point", "empty", "truncated", "whitespace", "surrogate", "deep",
        "delimiter", "control-character", "4301-digits"])
def test_check_reports_the_error_of_json(tmp_path, text):
    """check exits 2 with "input error: " and the message of json.loads, or
    of load_plane on what json.loads gives.  It runs in a new process, where
    json is not loaded when the document is read."""
    path = tmp_path / "malformed.json"
    path.write_text(text, encoding="utf-8")
    try:
        load_plane(json.loads(text))
    except (RecursionError, ValueError, AffinePlaneError) as exc:
        message = str(exc)
    else:
        pytest.fail("a valid plane")
    result = subprocess.run([sys.executable, "-m", "affineplane", "check", str(path)], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"input error: {message}\n")


SCALARS = [
    "", "plain", "quote\"back\\slash/", "\x00\x01\x1f\x7f\n\r\t\b\f",
    "\u00e9 \u00fc \u2603 \u00a0\u2028\U0001f600", "\ud800", "\udfff", "\ud83d\ude00",
    True, False, None,
    0, -1, 1, 2**31, 2**63, -(2**63) - 1, 2**64 + 1, 10**1000, -(10**4000),
    0.0, -0.0, 1.5, 0.1, -3.25e-7, 1e300, 1e-320, float("inf"), float("-inf"), float("nan"),
    [], (), {},
]


@pytest.mark.parametrize("value", SCALARS, ids=[f"{type(v).__name__}-{i}"
                                                for i, v in enumerate(SCALARS)])
def test_scalar_is_json_dumps(value):
    assert output._scalar(value) == json.dumps(value)


def test_scalar_of_subclasses_is_json_dumps():
    class Text(str):
        pass

    class Count(int):
        pass

    class Row(list):
        pass

    for value in (Text("sub"), Count(7), Row(), Row([1]), {"a": 1}):
        assert output._scalar(value) == json.dumps(value)


# Runs `python -m affineplane <argv>` with _json hidden, as on an
# interpreter that has no such module, when the first argument is "hide",
# and as it is when it is "keep".
WITHOUT_JSON_ACCELERATOR = """\
import runpy, sys
if sys.argv.pop(1) == "hide":
    sys.modules["_json"] = None  # import _json raises ImportError
runpy.run_module("affineplane", run_name="__main__", alter_sys=True)
"""


def test_commands_without_the_json_accelerator(tmp_path):
    """With no _json, cli hands every document to json.loads and output
    writes strings with json's own encoder: each command writes the same
    bytes to stdout and stderr, with the same exit code."""
    documents = {"p3": build_prime_plane(3).to_document(), "cut81": dual_hall9_cut(81),
                 "broken": {"points": 4, "lines": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3]]}}
    for name, document in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    (tmp_path / "truncated.json").write_text('{"points": 4, "lines": [[0')
    lines = [["check", "broken.json"], ["check", "truncated.json"], ["groups", "broken.json"]]
    for plane in ("p3.json", "cut81.json"):
        lines += [["check", plane], *([command, plane, *flags]
                                      for command, flags in sorted(bench_lines().items()))]
    for argv in lines:
        runs = [subprocess.run([sys.executable, "-c", WITHOUT_JSON_ACCELERATOR, how, *argv],
                               cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                               capture_output=True)
                for how in ("keep", "hide")]
        assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
            (runs[0].returncode, runs[0].stdout, runs[0].stderr)], argv
        assert runs[0].stdout or runs[0].returncode == 2, argv
