"""The benchmark's traced replay (bench/tracing.py) against the CLI.

``bench/run.py --trace 1`` replays each command in process through the
library's module paths (``collineation.enumerate_dilations``,
``transgroup.check_normal_in_dilations``, ``endo.add`` and others) and
compares the rendered report with the CLI's bytes.  This test runs the
same replay on AG(2,3) for the benchmark's three command lines, read from
bench/run.py, so that a name the replay reads and the program no longer
provides fails here, not only in the benchmark's traced run.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import affineplane
from affineplane import build_prime_plane
from conftest import bench_lines

SRC = os.path.dirname(os.path.dirname(affineplane.__file__))
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    replay = tracing.Replay(tracing.import_program(SRC), tracing.Tracer())
    replay.build(3)
    return replay


@pytest.fixture(scope="module")
def p3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "p3.json"
    path.write_text(json.dumps(build_prime_plane(3).to_document()))
    return str(path)


def test_bench_lines_are_read():
    assert sorted(bench_lines()) == ["endo", "groups", "verify-all"]


@pytest.mark.parametrize("command", ["groups", "endo", "verify-all"])
def test_replay_renders_the_cli_report(replay, p3_file, tmp_path, command):
    flags = bench_lines()[command]
    result = subprocess.run([sys.executable, "-m", "affineplane", command, p3_file, *flags],
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True)
    assert result.returncode == 0, result.stderr
    assert replay.command(command, p3_file).encode() == result.stdout
