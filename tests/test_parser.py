"""The command-line parser: cli.parse_args, read from the COMMANDS and FLAGS
tables, against the argparse parser that cli.py once built by hand.

build_parser and _bound below are that parser, kept as the reference, less
the --max-group flag and the AFFINEPLANE_* variables that cli no longer
reads.  cli.parse_args reads a line that names a command and its flags in
full itself (cli._exact) and hands every other line to the argparse parser
that affineplane.usage builds from the tables.  On every command line of
CORPUS, in its environment, and on FUZZ_LINES seeded random lines, both
parsers must accept with the same values, or both exit 0 with the same
first word on stdout (help or version), or both exit 2 with the usage and
the same error on stderr.  The help text itself is not compared.
"""

import argparse
import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from affineplane import __version__, cli
from affineplane.cli import DEFAULT_MAX_ORDER, cmd_build, cmd_check
from affineplane.cmd_endo import cmd_endo
from affineplane.cmd_groups import cmd_groups
from affineplane.cmd_verify_all import cmd_verify_all
from conftest import CHECK_FLAGS as CHECKS, COMMAND_LINES, PLANE as P, RING_FLAGS as RING


def _bound(text: str) -> int:
    """argparse type of --max-order: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value



def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineplane",
        description="Construct finite affine planes and verify their "
        "translation-group and endomorphism-ring structure.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, bounded=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write the report to a file instead of stdout")
        if bounded:
            p.add_argument("--max-order", type=_bound, default=DEFAULT_MAX_ORDER,
                           help="largest plane order to enumerate")
        return p

    p = command("build", cmd_build, "write the incidence document for AG(2,p)")
    p.add_argument("--order", type=int, required=True)

    p = command("check", cmd_check, "verify the affine plane axioms", bounded=False)
    p.add_argument("plane")

    p = command("groups", cmd_groups, "enumerate dilations and check group theorems")
    p.add_argument("plane")
    p.add_argument("--dilations", action="store_true", help="include dilation maps in the report")
    p.add_argument("--translations", action="store_true", help="include translations and Cayley table")
    p.add_argument("--check-abelian", action="store_true")
    p.add_argument("--check-normal", action="store_true")
    p.add_argument("--check-directions", action="store_true")

    p = command("endo", cmd_endo, "enumerate endomorphisms of the translation group")
    p.add_argument("plane")
    p.add_argument("--trace-preserving", action="store_true", dest="trace_preserving")
    p.add_argument("--check-ring", action="store_true", dest="check_ring")
    p.add_argument("--dump", action="store_true", help="include serialized tables")

    p = command("verify-all", cmd_verify_all, "run every check in dependency order")
    p.add_argument("plane")

    return parser


REFERENCE = build_parser()  # argparse keeps no state from one parse to the next


def reference(argv):
    return REFERENCE.parse_args(argv)


def outcome(parse, argv):
    """vars() of what parse(argv) returns, or, when it exits, (exit code,
    first word of stdout, whether stderr starts with the usage, [the last
    line of stderr], which holds the error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        error = err.getvalue()
        return (exc.code, out.getvalue().partition(" ")[0], error.startswith("usage:"),
                error.splitlines()[-1:])
    assert (out.getvalue(), err.getvalue()) == ("", "")
    return vars(args)


ORDER, GROUP = "AFFINEPLANE_MAX_ORDER", "AFFINEPLANE_MAX_GROUP"
# (environment, argv); P is a plane file, which neither parser opens
CORPUS = [
    # the command lines of the tests, of CI, of bench/ and of README.md
    ({}, ["--version"]),
    *(({}, argv) for argv in COMMAND_LINES),
    # the help and the usage errors they ask for
    ({}, ["--help"]),
    ({}, ["build", "--help"]),
    ({}, ["check", "--help"]),
    ({}, ["groups", "--help"]),
    ({}, ["endo", "--help"]),
    ({}, ["verify-all", "--help"]),
    ({}, ["check"]),
    ({}, ["endo", P, "--max-group", "4"]),
    ({}, ["endo", P, "--max-group", "9"]),
    ({}, ["endo", P, "--dump", "--max-group", "81"]),
    ({}, ["endo", P, *RING, "--max-group", "81"]),
    ({}, ["verify-all", P, "--max-group", "4"]),
    ({}, ["verify-all", P, "--max-group", "81"]),
    ({}, ["endo", P, "--max-order", "-1"]),
    ({}, ["endo", P, "--max-group", "-1"]),
    ({}, ["verify-all", P, "--max-group", "-9"]),
    ({}, ["groups", P, "--max-order", "three"]),
    ({}, ["build", "--order", "3", "--max-order", "-3"]),
    ({}, ["check", P, "--max-order", "3"]),
    ({}, ["check", P, "--max-group", "9"]),
    ({}, ["build", "--order", "3", "--max-group", "9"]),
    ({}, ["groups", P, "--max-group", "9"]),
    # --opt=value, unique and ambiguous prefixes, options before and after the plane
    ({}, ["build", "--order=3"]),
    ({}, ["build", "--order=3", "--out=p3.json", "--max-order=3"]),
    ({}, ["groups", P, "--max-order=9", "--translations"]),
    ({}, ["endo", "--max-group=81", P, "--max-order=9"]),
    ({}, ["check", P, "--out="]),
    ({}, ["groups", P, "--trans"]),
    ({}, ["groups", P, "--dil", "--check-a", "--check-n", "--check-d"]),
    ({}, ["groups", P, "--check"]),
    ({}, ["groups", P, "--check-"]),
    ({}, ["groups", "--help", P, "--check"]),
    ({}, ["endo", P, "--check"]),
    ({}, ["endo", P, "--t", "--d"]),
    ({}, ["endo", P, "--max", "9"]),
    ({}, ["groups", P, "--max", "9"]),
    ({}, ["groups", P, "--max-o=5"]),
    ({}, ["build", "--o", "3"]),
    ({}, ["build", "--ord", "3", "--ou", "p3.json"]),
    ({}, ["groups", "--check-abelian", P]),
    ({}, ["groups", "--max-order", "9", "--dilations", P, "--translations"]),
    ({}, ["endo", "--trace-preserving", P, "--check-ring"]),
    ({}, ["verify-all", "--out", "r.json", P]),
    ({}, ["check", "--out", "r.json", P]),
    # values that begin with "-"
    ({}, ["build", "--order", "-3"]),
    ({}, ["build", "--order", "-x"]),
    ({}, ["build", "--order", "3.5"]),
    ({}, ["build", "--order", " 3 "]),
    ({}, ["build", "--order", "1_3"]),
    ({}, ["build", "--order"]),
    ({}, ["groups", P, "--max-order", "-0"]),
    ({}, ["groups", P, "--max-order", "-.5"]),
    ({}, ["check", P, "--out", "-x"]),
    ({}, ["check", P, "--out", "-1"]),
    ({}, ["check", P, "--out", "-"]),
    ({}, ["check", P, "--out", "-x y"]),
    ({}, ["check", P, "--out", "--dump"]),
    ({}, ["check", P, "--out"]),
    ({}, ["check", P, "--out", ""]),
    ({}, ["check", "-1"]),
    ({}, ["check", "-"]),
    ({}, ["check", "-x"]),
    ({}, ["check", "-x y"]),
    ({}, ["check", ""]),
    # a repeated option: the last one counts
    ({}, ["check", P, "--out", "a.json", "--out", "b.json"]),
    ({}, ["groups", P, "--max-order", "9", "--max-order", "5"]),
    ({}, ["groups", P, "--max-order", "-1", "--max-order", "5"]),
    ({}, ["groups", P, "--check-abelian", "--check-abelian"]),
    # a missing or extra positional
    ({}, ["groups"]),
    ({}, ["build"]),
    ({}, ["groups", "--translations"]),
    ({}, ["check", "a.json", "b.json"]),
    ({}, ["build", "--order", "3", P]),
    # a flag the command does not take
    ({}, ["check", P, "--dump"]),
    ({}, ["groups", P, "--check-ring"]),
    ({}, ["build", "--order", "3", "--translations"]),
    ({}, ["verify-all", P, "--dump"]),
    ({}, ["check", P, "--version"]),
    ({}, ["groups", P, "--dilations=yes"]),
    ({}, ["groups", P, "--dilations="]),
    ({}, ["check", P, "-x"]),
    ({}, ["check", P, "--bogus"]),
    # an unknown or missing command
    ({}, []),
    ({}, ["frobnicate"]),
    ({}, ["frobnicate", P]),
    ({}, ["Check", P]),
    ({}, ["--out", "r.json", "check", P]),
    ({}, ["--bogus", "check", P]),
    ({}, ["-x"]),
    ({}, ["--bogus"]),
    ({}, ["--version=1"]),
    ({}, ["--help=1"]),
    # help and version: whichever of help or an error comes first wins
    ({}, ["-h"]),
    ({}, ["--he"]),
    ({}, ["--v"]),
    ({}, ["--vers", "check"]),
    ({}, ["--version", "frobnicate"]),
    ({}, ["frobnicate", "--version"]),
    ({}, ["--help", "--version"]),
    ({}, ["check", "--help=1"]),
    ({}, ["check", "-hx"]),
    ({}, ["check", "-hh"]),
    ({}, ["check", "-1\n"]),
    ({}, ["build", "-h"]),
    ({}, ["groups", P, "--help"]),
    ({}, ["endo", "-h", P]),
    ({}, ["verify-all", "--h"]),
    ({}, ["check", P, "--bogus", "--help"]),
    ({}, ["check", "a.json", "b.json", "--help"]),
    ({}, ["--bogus", "check", "--help"]),
    ({}, ["groups", P, "--max-order", "-1", "--help"]),
    ({}, ["groups", P, "--help", "--max-order", "-1"]),
    ({}, ["check", P, "--out", "--help"]),
    # "--" ends the options
    ({}, ["check", "--", "-x"]),
    ({}, ["check", "--", P]),
    ({}, ["check", P, "--"]),
    ({}, ["groups", "--translations", "--", P]),
    ({}, ["check", "--out", "--", P]),
    ({}, ["check", "--", P, "--"]),
    ({}, ["check", P, "--out", "r.json", "--"]),
    ({}, ["build", "--order", "3", "--"]),
    ({}, ["--", "check", P]),
    # environment variables that once set the bounds, which neither parser reads
    ({GROUP: "4"}, ["endo", P]),
    ({GROUP: "4"}, ["endo", P, "--max-group", "9"]),
    ({GROUP: "many"}, ["endo", P]),
    ({GROUP: "4.5"}, ["verify-all", P]),
    ({GROUP: "-1"}, ["endo", P]),
    ({GROUP: "many"}, ["endo", P, "--max-group", "9"]),
    ({GROUP: "many"}, ["verify-all", P, "--max-group=9"]),
    ({GROUP: "many"}, ["endo", P, "--max-group", "-9"]),
    ({GROUP: ""}, ["verify-all", P]),
    ({GROUP: " 7 "}, ["verify-all", P]),
    ({ORDER: "many"}, ["groups", P]),
    ({ORDER: "-1"}, ["build", "--order", "3"]),
    ({ORDER: "4.5"}, ["verify-all", P]),
    ({ORDER: "-1"}, ["endo", P, "--max-order", "3"]),
    ({ORDER: "many"}, ["build", "--order", "3", "--max-order", "3"]),
    ({ORDER: "many", GROUP: "many"}, ["endo", P]),
    ({ORDER: "many", GROUP: "many"}, ["endo", P, "--max-order", "3"]),
    ({ORDER: "many", GROUP: "many"}, ["endo", P, "--max-order", "3", "--max-group", "9"]),
    ({ORDER: "many"}, ["check", P]),
    ({GROUP: "many"}, ["groups", P]),
    ({GROUP: "many"}, ["build", "--order", "3"]),
    ({GROUP: "many"}, ["endo", P, "--help"]),
    ({GROUP: "many"}, ["endo", "--max-group", "-1", "--help", P]),
    ({GROUP: "many"}, ["endo"]),
]


def case_id(case):
    env, argv = case
    words = [f"{name}={value}" for name, value in env.items()] + argv
    return " ".join(word if word and " " not in word else repr(word) for word in words)


@pytest.mark.parametrize("env,argv", CORPUS, ids=map(case_id, CORPUS))
def test_table_parser_answers_as_argparse(monkeypatch, env, argv):
    for name in (ORDER, GROUP):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert outcome(cli.parse_args, argv) == outcome(reference, argv)


def test_corpus_reaches_every_answer(monkeypatch):
    for name in (ORDER, GROUP):
        monkeypatch.delenv(name, raising=False)
    answers = [outcome(reference, argv) for env, argv in CORPUS if not env]
    assert (0, "usage:", False, []) in answers  # help
    assert (0, f"{__version__}\n", False, []) in answers
    assert any(isinstance(answer, tuple) and answer[:3] == (2, "", True) for answer in answers)
    assert {answer["command"] for answer in answers if isinstance(answer, dict)} == set(
        cli.COMMANDS)


def test_exact_reads_every_command_line_that_runs(capsys):
    """The lines of CORPUS's first block need no argparse: _exact reads each
    to the reference's arguments, and writes the version for --version."""
    for argv in COMMAND_LINES:
        args = cli._exact(argv)
        assert args is not None, argv
        assert vars(args) == outcome(reference, argv)
    with pytest.raises(SystemExit) as exc:
        cli._exact(["--version"])
    assert (exc.value.code, capsys.readouterr().out) == (0, f"{__version__}\n")


# The words a fuzzed line is drawn from: the tables' commands and flags,
# flags no command takes, and values, some of which start with "-"
OTHER_FLAGS = ["--help", "-h", "--version", "--max-group", "--bogus", "-x", "--"]
VALUES = ["3", "9", "0", "13", "r.json", P, "-1", "-3", "-0", "-.5", "3.5", " 3 ", " -1", "1_3",
          "x", "-x", "-x y", "a b", "", "-", "--", "-1\n", "-hh", "-hx"]
FUZZ_SEED, FUZZ_LINES = 20200320, 2000


def fuzz_line(rng: random.Random) -> list:
    """A command, or a word before it, then flags of the command or others,
    in full, cut to a prefix or with "=value", most valued flags followed by
    a value, the plane at a random place and, at times, one more value."""
    command = rng.choice([*cli.COMMANDS] * 3 + ["frobnicate", "", "--", "-h", "--version",
                                                 "--he", "--v"])
    flags = cli.COMMANDS[command][3] if command in cli.COMMANDS else tuple(cli.FLAGS)
    words = []
    for _ in range(rng.randrange(4)):
        flag = rng.choice(flags) if rng.random() < 0.85 else rng.choice(OTHER_FLAGS)
        form = rng.random()
        if form < 0.1:
            words.append(flag[:rng.randrange(1, len(flag))])
        elif form < 0.2:
            words.append(f"{flag}={rng.choice(VALUES)}")
        else:
            words.append(flag)
            if cli.FLAGS.get(flag, (None,))[0] and rng.random() < 0.9:
                words.append(rng.choice(VALUES[:5] if rng.random() < 0.7 else VALUES))
    if rng.random() < 0.8:
        words.insert(rng.randrange(len(words) + 1), P)
    if rng.random() < 0.2:
        words.insert(rng.randrange(len(words) + 1), rng.choice(VALUES))
    return [command, *words]


def test_fuzzed_lines_get_the_argparse_answer():
    rng = random.Random(FUZZ_SEED)
    lines = [fuzz_line(rng) for _ in range(FUZZ_LINES)]
    exact = sum(argv != ["--version"] and cli._exact(argv) is not None for argv in lines)
    assert 300 < exact < FUZZ_LINES - 300  # both of parse_args' paths are fuzzed
    differ = [argv for argv in lines if outcome(cli.parse_args, argv) != outcome(reference, argv)]
    assert differ == []


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_names_every_flag_of_the_table(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal's width
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"] if command is None else [command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: affineplane {command or ''}".rstrip() + " [-h]")
    assert max(map(len, out.splitlines())) <= 79
    if command is None:
        assert all(name in out for name in cli.COMMANDS)
    else:
        *_, takes_plane, flags = cli.COMMANDS[command]
        assert all(flag in out for flag in flags)
        assert ("\npositional arguments:\n  plane " in out) == takes_plane
