"""Start-up and exit: each command loads only the stages it runs, nothing
loads ``dataclasses``, a line that names its command and flags in full
loads no ``argparse``, and the process entry ``cli.run`` turns the
collector off and leaves by ``os._exit`` with ``main()``'s code on every
way out, so the interpreter neither collects nor tears down the objects
the run made.

The package exports its names lazily (PEP 562): ``import affineplane``
loads no submodule, and a name loads its submodule on first access.
collineation, conjugation, endo, transgroup and cli forward the same way the names
they hand to a module of their own: the definitions no benchmark command
calls, the conjugation pass, the End search and the handlers of groups,
endo and verify-all, so that each command compiles only the code it runs.  The
records are ``collections.namedtuple`` subclasses and the one stateful
class, ``TranslationGroup``, a plain ``__slots__`` class.  No command
loads ``json`` or ``typing``: cli decodes a document with the scanner of
``_json`` and output writes a report's scalars itself.
"""

import gc
import importlib
import json
import os
import subprocess
import sys

import pytest

import affineplane
from affineplane import builder, cli
from conftest import (
    COMMAND_LINES, ag24_document, ag29_document, bench_lines, corrupted_documents,
    dual_hall9_cut,
)
from affineplane.collineation import ClassifiedMap
from affineplane.endo import GroupSelfMap, RingReport
from affineplane.incidence import AxiomCheck, AxiomReport, DirectionPartition
from affineplane.transgroup import CheckResult, TranslationGroup, check_abelian

SRC = os.path.dirname(os.path.dirname(affineplane.__file__))

# The names `affineplane` exports, by the submodule that defines each.
EXPORTS = {
    "builder": ["build_prime_plane", "is_prime", "prime_plane_document"],
    "collineation": ["ClassifiedMap", "fixed_points"],
    "conjugation": ["check_composition_direction", "check_conjugation"],
    "definitions": [
        "add", "check_conjugation_direction", "check_normal_in_dilations", "classify", "compose",
        "enumerate_dilations", "inversion_endo", "is_collineation", "is_dilation",
        "is_trace_preserving", "is_translation", "negate", "scalar_labeling", "unit_endo",
        "zero_endo",
    ],
    "endo": [
        "GroupSelfMap", "RingReport", "check_ring_axioms", "count_endomorphisms",
        "is_endomorphism", "tp_endomorphisms",
    ],
    "incidence": [
        "AxiomReport", "DirectionPartition", "IncidencePlane", "load_plane",
        "parallel_partition", "verify_axioms",
    ],
    "search": ["enumerate_endomorphisms", "enumerate_tp_endomorphisms"],
    "transgroup": ["CheckResult", "TranslationGroup", "build_group", "check_abelian", "generators"],
}

# (module, the module that defines them, names): names a module reads from
# another on first access, so that a command compiles only what it runs
FORWARDED = [
    ("collineation", "definitions", [
        "classify", "compose_cosets", "enumerate_dilations", "is_collineation", "is_dilation",
        "is_translation",
    ]),
    ("endo", "definitions", [
        "add", "compose", "inversion_endo", "is_trace_preserving", "negate", "scalar_labeling",
        "unit_endo", "zero_endo",
    ]),
    ("endo", "search", ["_chain_search", "enumerate_endomorphisms", "enumerate_tp_endomorphisms"]),
    ("transgroup", "conjugation", ["check_composition_direction", "check_conjugation"]),
    # the one-verdict forms, through conjugation's own forward
    ("transgroup", "definitions", ["check_conjugation_direction", "check_normal_in_dilations"]),
    ("conjugation", "definitions", [
        "_inverse", "check_conjugation_direction", "check_normal_in_dilations",
    ]),
    ("cli", "cmd_groups", ["cmd_groups"]),
    ("cli", "cmd_endo", ["cmd_endo"]),
    ("cli", "cmd_verify_all", ["cmd_verify_all"]),
]

# Runs `python -m affineplane <argv>` through runpy and, when cli.run calls
# os._exit, prints on stderr the modules the run loaded beyond those loaded
# at start-up, then exits by the real os._exit.  It imports nothing the
# program might load, so json and typing count as loaded by the run.
WRAPPER = """\
import os, runpy, sys
before = set(sys.modules)
real_exit = os._exit
def _exit(code):
    print("loaded:", *sorted(set(sys.modules) - before), file=sys.stderr, flush=True)
    real_exit(code)
os._exit = _exit
runpy.run_module("affineplane", run_name="__main__", alter_sys=True)
"""


def python(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True)


def loaded_by(tmp_path, *argv):
    """The exit code of `affineplane <argv>` and the modules it loaded.  -S
    skips site, so that a module a .pth file imports at start-up, such as
    typing, is not taken for loaded before the run."""
    result = python("-S", "-c", WRAPPER, *argv, cwd=tmp_path)
    line = result.stderr.splitlines()[-1]
    assert line.startswith("loaded:"), result.stderr
    return result.returncode, set(line.split()[1:])


@pytest.fixture(scope="module")
def plane_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "p3.json"
    path.write_text(json.dumps(builder.build_prime_plane(3).to_document()))
    return str(path)


@pytest.fixture(scope="module")
def ag24_file(tmp_path_factory):
    """A translation plane of order 4 that no prime builds: |Tr| = 16 = n."""
    path = tmp_path_factory.mktemp("startup") / "ag24.json"
    path.write_text(json.dumps(ag24_document()))
    return str(path)


@pytest.fixture(scope="module")
def cut_file(tmp_path_factory):
    """A plane whose Tr, 9 translations on 81 points, is not transitive."""
    path = tmp_path_factory.mktemp("startup") / "cut81.json"
    path.write_text(json.dumps(dual_hall9_cut(81)))
    return str(path)


STAGES = {"affineplane.collineation", "affineplane.transgroup", "affineplane.conjugation",
          "affineplane.endo"}
CONJUGATION = "affineplane.conjugation"  # the conjugation pass: groups and verify-all only
# the handler of each stage command, loaded for its command only
HANDLERS = {"affineplane.cmd_groups", "affineplane.cmd_endo", "affineplane.cmd_verify_all"}
DEFINITIONS = "affineplane.definitions"  # no benchmark command calls its definitions
# the End search: endo --dump, and TP maps on a plane whose Tr is not transitive
SEARCH = "affineplane.search"
BUILDER = "affineplane.builder"
# argparse and what it loads: cli reads the lines that run a command itself
PARSER_MODULES = {"argparse", "gettext", "locale", "textwrap"}
USAGE = "affineplane.usage"  # the argparse parser, for every other line
INCIDENCE = "affineplane.incidence"  # loaded where a document is read


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["build", "--order", "3"], STAGES | HANDLERS | {DEFINITIONS, SEARCH, INCIDENCE}),
        (["check", "PLANE"], STAGES | HANDLERS | {DEFINITIONS, SEARCH, BUILDER}),
        (["groups", "PLANE", "--check-abelian", "--check-normal", "--check-directions"],
         {"affineplane.endo", "affineplane.cmd_endo", "affineplane.cmd_verify_all", DEFINITIONS,
          SEARCH, BUILDER}),
        (["groups", "PLANE", "--dilations", "--check-normal"],
         {"affineplane.endo", "affineplane.cmd_endo", "affineplane.cmd_verify_all", SEARCH,
          BUILDER}),
        (["endo", "PLANE", "--trace-preserving", "--check-ring"],
         {CONJUGATION, "affineplane.cmd_groups", "affineplane.cmd_verify_all", DEFINITIONS,
          SEARCH, BUILDER}),
        (["endo", "PLANE", "--dump"],
         {CONJUGATION, "affineplane.cmd_groups", "affineplane.cmd_verify_all", DEFINITIONS,
          BUILDER}),
        (["verify-all", "PLANE"],
         {"affineplane.cmd_groups", "affineplane.cmd_endo", DEFINITIONS, SEARCH, BUILDER}),
        (["verify-all", "AG24"],
         {"affineplane.cmd_groups", "affineplane.cmd_endo", DEFINITIONS, SEARCH, BUILDER}),
        (["verify-all", "CUT"],
         {"affineplane.cmd_groups", "affineplane.cmd_endo", DEFINITIONS, BUILDER}),
    ],
    ids=["build", "check", "groups", "groups-dilations", "endo", "endo-dump", "verify-all",
         "verify-all-ag24", "verify-all-cut"],
)
def test_each_command_loads_only_its_stages(tmp_path, plane_file, ag24_file, cut_file, argv,
                                            absent):
    """Each command loads the modules it runs and no other: build no
    incidence layer, groups --dilations no endo, and endo and verify-all
    on a translation plane, AG(2,4) as well as a prime one, no End search,
    which endo --dump and a plane whose Tr is not transitive do load."""
    files = {"PLANE": plane_file, "AG24": ag24_file, "CUT": cut_file}
    code, loaded = loaded_by(tmp_path, *[files.get(a, a) for a in argv])
    assert code == 0
    assert "affineplane.cli" in loaded
    assert "dataclasses" not in loaded
    assert loaded & (absent | PARSER_MODULES | {USAGE}) == set()
    assert (STAGES | HANDLERS | {DEFINITIONS, SEARCH, BUILDER, INCIDENCE}) - absent <= loaded


@pytest.mark.parametrize("argv", [
    *([command, "PLANE", *flags] for command, flags in sorted(bench_lines().items())),
    ["build", "--order", "3"], ["check", "PLANE"], ["--version"],
], ids=["endo", "groups", "verify-all", "build", "check", "version"])
def test_no_command_loads_json_or_typing(tmp_path, plane_file, argv):
    """cli decodes the document with _json's scanner and output writes the
    report's scalars itself, and the records are collections.namedtuple
    subclasses, so neither json nor typing is on a command's path; and no
    module of the package has annotations to defer, so none imports
    __future__."""
    code, loaded = loaded_by(tmp_path, *[plane_file if a == "PLANE" else a for a in argv])
    assert code == 0
    assert "affineplane.cli" in loaded
    forbidden = ("json", "typing", "__future__")
    assert {m for m in loaded if m in forbidden or m.startswith("json.")} == set()


@pytest.mark.parametrize(
    "argv,code,parser",
    [(["--version"], 0, False), (["--help"], 0, True), (["endo", "--help"], 0, True),
     (["groups"], 2, True)],
    ids=["version", "help", "command-help", "usage-error"],
)
def test_help_version_and_usage_errors_load_no_parser_module(tmp_path, argv, code, parser):
    """--version loads no parser module; --help and usage errors load
    argparse, but no stage module, and read no document."""
    returncode, loaded = loaded_by(tmp_path, *argv)
    assert returncode == code
    assert "affineplane.cli" in loaded
    assert loaded & (STAGES | HANDLERS | {DEFINITIONS, BUILDER, INCIDENCE, "json"}) == set()
    if parser:
        assert {"argparse", USAGE} <= loaded
    else:
        assert loaded & (PARSER_MODULES | {USAGE}) == set()


# Reads each command line with cli.parse_args, in one process, then prints
# whether argparse or affineplane.usage was loaded.
PARSE_WRAPPER = """\
import json, sys
from affineplane import cli
for argv in json.loads(sys.argv[1]):
    cli.parse_args(argv)
print(sorted({"argparse", "affineplane.usage"} & set(sys.modules)))
"""


def test_command_lines_that_run_load_no_parser_module(tmp_path):
    result = python("-c", PARSE_WRAPPER, json.dumps(COMMAND_LINES), cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_import_loads_no_submodule(tmp_path):
    code = "import sys, affineplane; print(sorted(m for m in sys.modules if m.startswith('affineplane')))"
    result = python("-c", code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['affineplane']\n"


def test_every_export_is_its_submodule_object():
    assert sorted(affineplane.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"affineplane.{module}")
        for name in names:
            assert getattr(affineplane, name) is getattr(submodule, name), name
    assert set(affineplane.__all__) <= set(dir(affineplane))


@pytest.mark.parametrize("module,home,names", FORWARDED, ids=[
    f"{module}-{home}" for module, home, _ in FORWARDED])
def test_each_forwarded_name_is_its_home_object(module, home, names):
    module, home = (importlib.import_module(f"affineplane.{m}") for m in (module, home))
    for name in names:
        assert name in vars(home) and name not in vars(module), name
        assert getattr(module, name) is getattr(home, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        affineplane.no_such_name


@pytest.mark.parametrize("module", sorted({module for module, _, _ in FORWARDED}))
def test_unknown_attribute_of_a_forwarding_module_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=f"'affineplane.{module}' has no attribute 'no_name'"):
        importlib.import_module(f"affineplane.{module}").no_name


@pytest.mark.parametrize(
    "cls,fields,defaults",
    [
        (DirectionPartition, ("class_of", "classes"), {}),
        (AxiomCheck, ("passed", "witness"), {"witness": None}),
        (AxiomReport, ("unique_join", "unique_parallel", "triangle"), {}),
        (ClassifiedMap, ("image", "kind", "fixed_points", "direction"), {"direction": None}),
        (CheckResult, ("name", "passed", "witness"), {"witness": None}),
        (RingReport, ("axioms", "mul_commutative", "num_tp", "num_endomorphisms"),
         {"num_endomorphisms": None}),
        (GroupSelfMap, ("table",), {}),
    ],
)
def test_record_fields_and_defaults(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults


def test_records_compare_and_hash_by_value_and_reject_assignment():
    a = ClassifiedMap((1, 0), "translation", frozenset(), 0)
    b = ClassifiedMap((1, 0), "translation", frozenset(), 0)
    assert a == b and hash(a) == hash(b)
    assert a != a._replace(direction=1)
    assert a.is_identity is False
    partition = DirectionPartition((0, 0, 1), ((0, 1), (2,)))
    assert partition == DirectionPartition((0, 0, 1), ((0, 1), (2,)))
    assert hash(partition) == hash(DirectionPartition((0, 0, 1), ((0, 1), (2,))))
    assert partition.num_classes == 2
    alpha = GroupSelfMap((0, 1))
    assert alpha == GroupSelfMap((0, 1)) and hash(alpha) == hash(GroupSelfMap((0, 1)))
    assert alpha != GroupSelfMap((0, 0))
    for record, field in [(a, "kind"), (partition, "classes"), (alpha, "table"),
                          (alpha, "is_endomorphism")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert CheckResult("abelian", True) == CheckResult("abelian", True, None)
    assert AxiomCheck(False, (1, 2)) != AxiomCheck(False, (2, 1))


def test_ring_report_keeps_its_class_constant():
    assert "AXIOM_NAMES" not in RingReport._fields
    assert len(RingReport.AXIOM_NAMES) == 10
    report = RingReport({name: (True, None) for name in RingReport.AXIOM_NAMES}, True, 2)
    assert report.all_pass and report.to_dict()["num_tp"] == 2
    assert "num_endomorphisms" not in report.to_dict()


def test_translation_group_keeps_its_caches(groups):
    g = groups[3]
    rebuilt = TranslationGroup(g.elements, g.cayley, g.inverse, g.direction_of)
    assert rebuilt.order == g.order == 9
    assert all(rebuilt.index_of(f.image) == i for i, f in enumerate(g.elements))
    assert rebuilt._by_key == g._by_key and rebuilt._chain is None and rebuilt._abelian is None
    assert check_abelian(rebuilt) is check_abelian(rebuilt) is rebuilt._abelian
    with pytest.raises(AttributeError):
        rebuilt.other = 1


# Runs `python -m <module> <argv>` through runpy and, when cli.run calls
# os._exit, prints on stderr whether the collector was on at start-up and
# is on at exit, and the code os._exit receives, then exits by the real one.
EXIT_WRAPPER = """\
import gc, os, runpy, sys
before = gc.isenabled()
real_exit = os._exit
def _exit(code):
    print("exit:", before, gc.isenabled(), code, file=sys.stderr, flush=True)
    real_exit(code)
os._exit = _exit
runpy.run_module(sys.argv.pop(1), run_name="__main__", alter_sys=True)
"""


@pytest.fixture(scope="module")
def broken_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "broken.json"
    document = corrupted_documents(builder.build_prime_plane(3).to_document())["line_dropped"]
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize(
    "module,argv,code",
    [
        ("affineplane", ["check", "PLANE"], 0),
        ("affineplane.cli", ["check", "PLANE"], 0),
        ("affineplane", ["check", "BROKEN"], 1),
        ("affineplane", ["check", "no-such-file.json"], 2),
        ("affineplane", ["groups", "BROKEN"], 2),
        ("affineplane", ["check"], 2),  # usage error
        ("affineplane", ["--version"], 0),
        ("affineplane", ["--help"], 0),
    ],
    ids=["pass", "pass-cli", "fail", "input-error", "not-a-plane", "usage-error", "version",
         "help"],
)
def test_run_exits_by_os_exit_with_the_collector_off(tmp_path, plane_file, broken_file, module,
                                                     argv, code):
    files = {"PLANE": plane_file, "BROKEN": broken_file}
    result = python("-c", EXIT_WRAPPER, module, *[files.get(a, a) for a in argv], cwd=tmp_path)
    assert result.returncode == code, result.stderr
    assert result.stderr.splitlines()[-1] == f"exit: True False {code}"


def test_main_leaves_the_collector_alone(plane_file, capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["check", plane_file]) == 0
    for argv in (["--version"], ["check"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


@pytest.mark.parametrize("file", ["PLANE", "BROKEN"])
@pytest.mark.parametrize("argv", [
    ["check"],
    ["groups", "--translations", "--check-abelian", "--check-normal", "--check-directions"],
    ["endo", "--trace-preserving", "--check-ring"],
    ["verify-all"],
], ids=["check", "groups", "endo", "verify-all"])
def test_entry_points_agree(tmp_path, plane_file, broken_file, argv, file):
    path = {"PLANE": plane_file, "BROKEN": broken_file}[file]
    package, cli_module = (
        subprocess.run([sys.executable, "-m", module, argv[0], path, *argv[1:]], cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=SRC), capture_output=True)
        for module in ("affineplane", "affineplane.cli")
    )
    assert (package.returncode, package.stdout, package.stderr) == (
        cli_module.returncode, cli_module.stdout, cli_module.stderr)
    # the broken plane fails check and verify-all, and is no input for groups or endo
    expected = 0 if file == "PLANE" else 1 if argv[0] in ("check", "verify-all") else 2
    assert package.returncode == expected


@pytest.mark.parametrize("module", ["affineplane", "affineplane.cli"])
def test_buffered_report_reaches_a_pipe_whole(tmp_path, module):
    """os._exit flushes nothing: a buffered report of many buffers, about
    159 KB here, still reaches the pipe whole, as json.dumps writes it."""
    path = tmp_path / "ag29.json"
    path.write_text(json.dumps(ag29_document()))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run([sys.executable, "-m", module, "groups", str(path), "--translations"],
                            cwd=tmp_path, env=dict(env, PYTHONPATH=SRC), capture_output=True)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout) > 150_000
    report = json.loads(result.stdout)
    assert result.stdout == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


# Runs `python -m affineplane.cli <argv>` through runpy and, when cli.run
# calls os._exit, prints on stderr whether affineplane.cli is the running
# module, then exits by the real os._exit.
SAME_CLI_WRAPPER = """\
import os, runpy, sys
real_exit = os._exit
def _exit(code):
    print("same:", sys.modules.get("affineplane.cli") is sys.modules["__main__"],
          file=sys.stderr, flush=True)
    real_exit(code)
os._exit = _exit
runpy.run_module("affineplane.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv", [["endo", "PLANE"], ["groups", "PLANE"], ["verify-all", "PLANE"],
                                  ["check", "PLANE", "--ou", "r.json"]],
                         ids=["endo", "groups", "verify-all", "argparse"])
def test_cli_as_main_is_the_one_cli_module(tmp_path, plane_file, argv):
    """Under `python -m affineplane.cli` the handler modules and usage import
    affineplane.cli, which is the running module: cli.py is compiled once."""
    result = python("-c", SAME_CLI_WRAPPER, *[plane_file if a == "PLANE" else a for a in argv],
                    cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "same: True"


def test_argparse_path_runs_the_handlers_of_the_running_module(tmp_path):
    """Under `python -m affineplane.cli` the module runs as __main__, and
    affineplane.usage imports it as affineplane.cli.  A line that argparse
    reads runs __main__'s handlers, so a failed write is an output error
    there too, not a traceback of the _OutputError of another copy."""
    for module in ("affineplane", "affineplane.cli"):
        with subprocess.Popen([sys.executable, "-m", module, "build", "--ord", "3"], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            proc.stdout.close()  # before the child writes its report
            err = proc.stderr.read()
        assert (proc.returncode, err) == (2, b"output error: [Errno 32] Broken pipe\n"), module
