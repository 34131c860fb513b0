"""Benchmark of the affineplane CLI: three workloads, checked by an independent oracle.

    python3 bench/run.py --workload groups-large --seed 1 --seconds 10 --trace 0

Run from the root of a source tree: the program is ``src/affineplane``,
started as ``python3 -m affineplane`` with ``PYTHONPATH=src``.  One client
runs the commands one after another (a closed loop, no threads).  A run
repeats whole rounds, each of which sets the inputs up and runs every
command of the workload once: at least three rounds, and more while they
fit in ``--seconds``.  Every set-up and command sits between two runs of
calibrate.py, a fixed job; the e2e times are wall times scaled by how
long that job took around them (see ``scale`` and README.md).
``--trace 1`` runs three rounds and replays each command in-process with a
span per library call (see tracing.py); a per-layer metric is the median
over the rounds.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
prints one such line per workload.  The exit code is 1 when a command
fails or a report fails the oracle, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import planes
import tracing

GROUPS = ["groups", "--translations", "--check-abelian", "--check-normal", "--check-directions"]
ENDO = ["endo", "--trace-preserving", "--check-ring"]
VERIFY_ALL = ["verify-all"]

# workload -> (command, planes); why each was chosen is in README.md
WORKLOADS = {
    "groups-large": (GROUPS, ["AG(2,9)", "Hall(9)", "AG(2,7)"]),
    "endo-ring": (ENDO, ["AG(2,7)", "AG(2,4)"]),
    "verify-all": (VERIFY_ALL, ["AG(2,2)", "AG(2,3)"]),
}
PRIMES = {"AG(2,2)": 2, "AG(2,3)": 3, "AG(2,7)": 7}
MIN_ROUNDS = 3  # each round sets up afresh; setup_s is the median over the rounds
STARTUP_REPEATS = 3  # cli.startup_s is the median of this many `--version` runs
# a command still running this long after --seconds have passed is killed, and fails
COMMAND_LIMIT_S = 120.0
# e2e times are scaled to a processor on which calibrate.py takes this long (README.md)
CALIBRATION_REF_S = 0.15

E2E_UNITS = {"wall_s": "s", "slowest_s": "s", "fastest_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Outcome:
    returncode: int
    wall: float
    cpu: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    scale: float = 1.0  # see scale()


@dataclass
class Case:
    name: str
    argv: list[str]
    document: bytes

    @property
    def command(self) -> str:
        return self.argv[0]


class Program:
    """Runs ``python3 -m affineplane`` through launcher.py, which measures each command."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("AFFINEPLANE_")}
        env["PYTHONPATH"] = str(root / "src")
        self.base = [sys.executable, "-m", "affineplane"]
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=workdir, env=env, text=True,
        )

    def close(self) -> None:
        self.launcher.terminate()  # it kills a command still running, then ends
        self.launcher.wait()

    @property
    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def run(self, args: list[str]) -> Outcome:
        return self.launch(self.base + args)

    def calibrate(self) -> float:
        """The wall time of calibrate.py."""
        outcome = self.launch([sys.executable, str(Path(__file__).with_name("calibrate.py"))])
        if outcome.returncode != 0:
            raise RuntimeError(f"calibrate.py exited {outcome.returncode}: {outcome.stderr.decode()[-300:]}")
        return outcome.wall

    def launch(self, argv: list[str]) -> Outcome:
        out, err = self.workdir / "command.stdout", self.workdir / "command.stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err),
                   "limit_s": self.deadline - time.perf_counter()}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return Outcome(reply["returncode"], reply["wall"], reply["cpu"], reply["rss_kb"],
                       out.read_bytes(), err.read_bytes())


def make_plane(name: str) -> planes.VectorPlane:
    if name == "Hall(9)":
        return planes.hall_plane()
    return planes.coordinate_plane(int(name[len("AG(2,"):-1]))


def set_up(workload: str, seed: int, program: Program) -> tuple[list[Case], list[str]]:
    """Build or generate, relabel, write and `check` every document of a workload."""
    command, names = WORKLOADS[workload]
    cases, problems = [], []
    for name in names:
        plane = make_plane(name)
        relabelling = planes.Relabelling(seed, name, plane.num_points)
        document = relabelling.document(plane.num_points, plane.lines)
        if name in PRIMES:
            built = program.run(["build", "--order", str(PRIMES[name])])
            if built.returncode != 0:
                problems.append(f"{name}: build exited {built.returncode}")
                continue
            from_build = relabelling.document(plane.num_points, json.loads(built.stdout)["lines"])
            if planes.point_sets(from_build) != planes.point_sets(document):
                problems.append(f"{name}: `affineplane build` differs from the coordinate plane")
            document = from_build
        path = program.workdir / (name.replace("(", "-").replace(",", "-").replace(")", "") + ".json")
        text = (json.dumps(document) + "\n").encode()
        path.write_bytes(text)
        checked = program.run(["check", path.name])
        if checked.returncode != 0 or json.loads(checked.stdout)["status"] != "pass":
            problems.append(f"{name}: `affineplane check` did not pass")
        cases.append(Case(name, [command[0], path.name] + command[1:], text))
    return cases, problems


def scale(before: float, after: float) -> float:
    """CALIBRATION_REF_S over the mean of the calibrate.py times around a step."""
    return 2 * CALIBRATION_REF_S / (before + after)


def run_round(program: Program, cases: list[Case], before: float) -> list[Outcome]:
    """Each command once, with calibrate.py run between every two."""
    outcomes = []
    for case in cases:
        outcomes.append(program.run(case.argv))
        after = program.calibrate()
        outcomes[-1].scale = scale(before, after)
        before = after
    return outcomes


def expectations(seed: int, cases: list[Case]) -> dict[str, oracle.Expected]:
    expected = {}
    for case in cases:
        plane = make_plane(case.name)
        expected[case.name] = oracle.Expected(plane, planes.Relabelling(seed, case.name, plane.num_points))
    return expected


def judge(seed: int, cases: list[Case], rounds: list[list[Outcome]]) -> tuple[int, list[str]]:
    """Failed commands, and every oracle, determinism or self-check problem.

    A command that exits other than 0, or is killed at the deadline, is
    counted as failed and is a problem too.
    """
    failed, problems = 0, []
    expected = expectations(seed, cases)
    first = rounds[0]
    for outcomes in rounds:
        for case, outcome, reference in zip(cases, outcomes, first):
            if outcome.returncode != 0:
                failed += 1
                how = "killed" if outcome.returncode < 0 else "exit"
                problems.append(f"{case.name}: {how} {outcome.returncode}: {outcome.stderr.decode()[-300:]}")
                continue
            text = outcome.stdout.decode()
            problems += [f"{case.name}: {p}" for p in oracle.check_report(case.command, text, expected[case.name])]
            if reference.returncode == 0 and outcome.stdout != reference.stdout:
                problems.append(f"{case.name}: report differs between rounds with the same seed")
    rejected = 0
    for case, outcome in zip(cases, first):
        if outcome.returncode != 0:
            continue
        for label, damaged in oracle.corruptions(case.command, outcome.stdout.decode()):
            if oracle.check_report(case.command, damaged, expected[case.name]):
                rejected += 1
            else:
                problems.append(f"{case.name}: oracle accepted a corrupted report ({label})")
    print(f"oracle: {len(rounds) * len(cases) - failed} reports checked, "
          f"{rejected} corrupted copies rejected", file=sys.stderr)
    return failed, problems


def e2e_metrics(rounds: list[list[Outcome]], setups: list[float]) -> dict:
    """Each command's median scaled time, summed, maximised and minimised.

    Called only when every outcome exited 0 and passed the oracle.
    """
    times = [statistics.median(r[i].wall * r[i].scale for r in rounds) for i in range(len(rounds[0]))]
    return {
        "wall_s": sum(times),
        "slowest_s": max(times),
        "fastest_s": min(times),
        "peak_rss_mb": max(o.rss_kb for outcomes in rounds for o in outcomes) / 1024,
        "setup_s": statistics.median(setups),
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool, root: Path) -> dict:
    began = time.perf_counter()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    program = Program(root, workdir, began + seconds + COMMAND_LIMIT_S)
    try:
        rounds, setups, layers, tracers, problems, documents = [], [], [], [], [], None
        last = 0.0  # how long the last round took; a round that would end after --seconds is not begun
        while not program.expired and (
            len(rounds) < MIN_ROUNDS or (not traced and time.perf_counter() - began + last < seconds)
        ):
            round_began = time.perf_counter()
            before = program.calibrate()
            start = time.perf_counter()
            cases, setup_problems = set_up(workload, seed, program)
            setup = time.perf_counter() - start
            after = program.calibrate()
            setups.append(setup * scale(before, after))
            problems += setup_problems
            if documents is not None and documents != [c.document for c in cases]:
                problems.append("set-up with the same seed wrote different documents")
            documents = [c.document for c in cases]
            if traced:
                tracers.append(tracing.Tracer())
                outcomes, layer, replay_problems = traced_round(program, cases, tracers[-1], root)
                layers.append(layer)
                problems += replay_problems
            else:
                outcomes = run_round(program, cases, after)
            rounds.append(outcomes)
            last = time.perf_counter() - round_began
        failed, judged = judge(seed, cases, rounds)
        problems += judged
        if problems:
            metrics = {}  # a run with a failed command or a rejected report measures nothing
        elif traced:
            metrics = {name: (statistics.median(m[name][0] for m in layers), unit) for name, (_, unit) in layers[0].items()}
            if any(m[name][0] != v for m in layers for name, (v, unit) in layers[0].items() if unit == "count"):
                problems.append("a count differs between traced rounds")
                metrics = {}
            with open(out_dir / f"trace-{workload}-seed{seed}.json", "w") as fh:
                json.dump({"workload": workload, "seed": seed, "rounds": [t.to_dict() for t in tracers]}, fh)
        else:
            metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e_metrics(rounds, setups).items()}
    finally:
        program.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"FAIL {workload}: {p}", file=sys.stderr)
    attempted = sum(len(r) for r in rounds)
    print(f"{workload}: {len(rounds)} round(s), {attempted} commands attempted, {failed} failed", file=sys.stderr)
    for i, case in enumerate(cases):
        walls = [r[i].wall for r in rounds]
        scales = [r[i].scale for r in rounds]
        print(f"  {case.command} {case.name}: wall {min(walls):.4f} s best, "
              f"{statistics.median(walls):.4f} s median, not scaled; "
              f"scale {statistics.median(scales):.3f} median", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_round(program: Program, cases: list[Case], tracer: tracing.Tracer, root: Path):
    """One round, each command run as a subprocess and then replayed with spans."""
    startup = [program.run(["--version"]).wall for _ in range(STARTUP_REPEATS)]
    replay = tracing.Replay(tracing.import_program(str(root / "src")), tracer)
    problems, outcomes = [], []
    for case in cases:
        if case.name in PRIMES:
            replay.build(PRIMES[case.name])
    for case in cases:
        outcome = program.run(case.argv)
        outcomes.append(outcome)
        text = replay.command(case.command, str(program.workdir / case.argv[1]))
        if outcome.returncode == 0 and text.encode() != outcome.stdout:
            problems.append(f"{case.name}: in-process replay renders a different report")
    return outcomes, tracing.layer_metrics(tracer, outcomes, startup), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the plane relabellings")
    parser.add_argument("--seconds", type=int, default=10, help="how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "affineplane" / "cli.py").is_file():
        print("bench: no src/affineplane here; run from the root of the source tree", file=sys.stderr)
        return 2
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
