"""Benchmark for the cerf command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the named workload's commands run as a user runs them,
`python -m cerf.cli ...` with PYTHONPATH=src, one child process at a time,
and each is timed by its CPU time (user plus system). calibrate.py runs
before each of them; the median of its CPU times gives the machine's speed
during the run, and the timings are reported at a fixed reference speed.
Every command's output is checked against reference.py. The last line of
standard output is one JSON object with the end-to-end metrics. With
--trace 1 the in-process traced replay of tracing.py runs instead and the
metrics are the per-layer ones. --workload all runs the listed workloads in turn.
Progress and a readable summary go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import calibrate
import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
# CPU seconds calibrate.py takes at the reference speed (its median on the
# machine in the README, when that machine ran at its usual speed).
CALIBRATION_REFERENCE_S = 0.2

# Input sizes: a round of each workload takes one to seven seconds on the
# machine in the README.
E3_EVENTS = 20_000
E1_EVENTS = 1_000
SWEEP_WIDTHS = (3, 4, 5, 6, 7)
SWEEP_CHECKED_STRINGS = 300
TRAIN_EVENTS = 1_000
TEST_EVENTS = 1_000
FORECAST_CHECKED = 12

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """The small process of launcher.py, which starts each cerf command and
    reports its wall time, CPU time, exit code and peak RSS (from os.wait4)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def run(self, argv: list[str], work: Path) -> Child:
        out, err = work / "child.out", work / "child.err"
        request = {"argv": argv,
                   "stdout": str(out), "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["code"], reply["wall_s"], reply["cpu_s"], reply["rss_mb"],
                     out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Op:
    """One command and the check of its output (stdout -> problems)."""

    label: str
    args: list[str]
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    setups: list[Op]  # each command on an empty input
    ops: list[Op]  # one round
    summary: Callable[[dict], dict]  # per-op medians -> readable figures
    prepare: list[Op] = field(default_factory=list)  # run once before set-up


def _seeded(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def build_recognize(name: str, work: Path, seed: int) -> Workload:
    windowed = name == "recognize-e3-w4"
    count = E3_EVENTS if windowed else E1_EVENTS
    events = inputs.sensor_events(_seeded(name, seed), count)
    pattern = inputs.write_text(work / "pattern.pat", inputs.E3_TEXT if windowed else inputs.E1_TEXT)
    stream = inputs.write_jsonl(work / "stream.jsonl", events)
    empty = inputs.write_jsonl(work / "empty.jsonl", [])
    window = ["--window", "4"] if windowed else []
    expected = reference.expected_matches(events, 4 if windowed else None)

    def args(path):
        return ["recognize", str(pattern), *window, "--input", str(path)]

    return Workload(
        setups=[Op(f"{name}-empty", args(empty), lambda out: reference.check_recognize(out, []))],
        ops=[Op(name, args(stream), lambda out: reference.check_recognize(out, expected))],
        summary=lambda med: {f"events_per_s[{name}]": (count / med[name], "events/s")},
    )


def build_sweep(name: str, work: Path, seed: int) -> Workload:
    pattern = inputs.write_text(work / "e3.pat", inputs.E3_TEXT)
    compilers: dict = {}
    sizes: dict[int, tuple[int, int]] = {}

    def op(width: int) -> Op:
        out = work / f"dsra-w{width}.json"
        sample = reference.dsra_sample(seed, width, SWEEP_CHECKED_STRINGS)

        def check(_stdout: str) -> list[str]:
            try:
                doc = json.loads(out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return [f"w={width}: no automaton document ({exc})"]
            sizes[width] = (len(doc.get("states", ())), len(doc.get("transitions", ())))
            return reference.check_dsra(doc, width, sample, compilers)

        args = ["determinize", str(pattern), "--window", str(width), "--out", str(out)]
        return Op(f"determinize-w{width}", args, check)

    def summary(med):
        return {
            "compile_s": (sum(med[f"determinize-w{w}"] for w in SWEEP_WIDTHS), "s"),
            "dsra_states": (sum(sizes[w][0] for w in SWEEP_WIDTHS), "count"),
            "dsra_transitions": (sum(sizes[w][1] for w in SWEEP_WIDTHS), "count"),
        }

    return Workload(setups=[op(1)], ops=[op(w) for w in SWEEP_WIDTHS], summary=summary)


def build_learn_forecast(name: str, work: Path, seed: int) -> Workload:
    rng = _seeded(name, seed)
    train = inputs.sensor_events(rng, TRAIN_EVENTS)
    test = inputs.sensor_events(rng, TEST_EVENTS)
    pattern = inputs.write_text(work / "e3.pat", inputs.E3_TEXT)
    train_path = inputs.write_jsonl(work / "train.jsonl", train)
    test_path = inputs.write_jsonl(work / "test.jsonl", test)
    empty = inputs.write_jsonl(work / "empty.jsonl", [])
    model = work / "model.json"
    sampled = reference.forecast_sample(seed, FORECAST_CHECKED, TEST_EVENTS)

    def model_doc() -> dict:
        return json.loads(model.read_text(encoding="utf-8"))

    def check_learn(_stdout: str) -> list[str]:
        try:
            return reference.check_model(model_doc(), train)
        except (OSError, ValueError) as exc:
            return [f"no model document ({exc})"]

    learn = Op(
        "learn",
        ["learn", str(pattern), "--window", "4", "--max-order", "3",
         "--train", str(train_path), "--out", str(model)],
        check_learn,
    )
    def forecast(path: Path) -> list[str]:
        return ["forecast", "--model", str(model), "--input", str(path), "--emit-dist"]

    return Workload(
        setups=[Op(
            "forecast-empty",
            forecast(empty),
            lambda out: reference.check_forecast(out, model_doc(), [], []),
        )],
        ops=[
            learn,
            Op(
                "forecast",
                forecast(test_path),
                lambda out: reference.check_forecast(out, model_doc(), test, sampled),
            ),
        ],
        summary=lambda med: {
            "learn_s": (med["learn"], "s"),
            "events_per_s[forecast]": (TEST_EVENTS / med["forecast"], "events/s"),
        },
        prepare=[learn],  # the forecast set-up command needs a model to load
    )


def build_oracle(name: str, work: Path, seed: int) -> Workload:
    rng = _seeded(name, seed)
    pool = inputs.oracle_pool()
    rng.shuffle(pool)
    preds = reference.parse_predicates(inputs.ORACLE_PREDICATES.splitlines())
    universe = inputs.ORACLE_UNIVERSE
    universe_path = inputs.write_jsonl(work / "universe.jsonl", universe)
    total = len(reference.oracle_strings(universe, inputs.ORACLE_MAX_LEN))

    def op(i: int, expr, max_len: int) -> Op:
        path = inputs.write_text(
            work / f"oracle-{i}.pat", inputs.ORACLE_PREDICATES + "\n" + inputs.render_expr(expr) + "\n"
        )
        args = ["oracle", str(path), "--enumerate", "--universe", str(universe_path),
                "--max-len", str(max_len)]
        return Op(
            f"oracle-{i}",
            args,
            lambda out: reference.check_oracle(out, expr, universe, max_len, preds),
        )

    ops = [op(i, expr, inputs.ORACLE_MAX_LEN) for i, expr in enumerate(pool)]
    return Workload(
        setups=[op(len(pool), pool[0], 0)],
        ops=ops,
        summary=lambda med: {
            "oracle_strings_per_s": (
                total * len(ops) / sum(med[o.label] for o in ops), "strings/s"
            )
        },
    )


COMPONENTS = {
    "recognize-e3-w4": build_recognize,
    "recognize-e1-open": build_recognize,
    "determinize-e3-sweep": build_sweep,
    "learn-forecast-e3-w4": build_learn_forecast,
    "oracle-random": build_oracle,
}

# The workloads BENCHMARK.json lists. On the machine the README describes,
# speed drifts by up to a quarter over tens of seconds, so a run needs most
# of a minute to average the drift out; the run budget allows that for two
# workloads, so each runs several of the components above in every round.
# A component alone is still a workload of its own, for looking at one layer.
WORKLOADS = {
    "recognize-forecast": ("recognize-e3-w4", "recognize-e1-open", "learn-forecast-e3-w4"),
    "determinize-oracle": ("determinize-e3-sweep", "oracle-random"),
}


def build(name: str, work: Path, seed: int) -> Workload:
    """The workload's components, each in a directory of its own, as one."""
    parts = []
    for component in WORKLOADS.get(name, (name,)):
        (work / component).mkdir()
        parts.append(COMPONENTS[component](component, work / component, seed))
    return Workload(
        setups=[op for wl in parts for op in wl.setups],
        ops=[op for wl in parts for op in wl.ops],
        summary=lambda med: {k: v for wl in parts for k, v in wl.summary(med).items()},
        prepare=[op for wl in parts for op in wl.prepare],
    )


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _attempt(launcher: Launcher, op: Op, work: Path) -> tuple[Child, list[str], bool]:
    """Run and check one op: (child, problems, output_wrong)."""
    child = launcher.run([sys.executable, "-m", "cerf.cli", *op.args], work)
    if child.code != 0:
        return child, [f"{op.label}: exit {child.code}: {child.stderr.strip()[-300:]}"], False
    problems = op.check(child.stdout)
    return child, [f"{op.label}: {p}" for p in problems], bool(problems)


def _calibrate(launcher: Launcher, work: Path) -> float:
    """CPU seconds of one run of calibrate.py."""
    child = launcher.run([sys.executable, str(Path(__file__).with_name("calibrate.py"))], work)
    if child.code != 0 or child.stdout.strip() != str(calibrate.CHECKSUM):
        raise RuntimeError(f"calibrate.py: exit {child.code}, output {child.stdout.strip()[:80]!r}")
    return child.cpu_s


def run_workload(name: str, seed: int, seconds: float) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir()
    launcher = Launcher()
    try:
        return _measure(name, build(name, work, seed), launcher, work, seconds)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def _measure(name: str, wl: Workload, launcher: Launcher, work: Path, seconds: float) -> dict:
    for op in wl.prepare:
        problems = _attempt(launcher, op, work)[1]
        if problems:
            raise RuntimeError(f"preparation failed: {problems}")
    calibrations: list[float] = []
    setup_cpus: dict[str, list[float]] = {op.label: [] for op in wl.setups}
    for _ in range(SETUP_REPEATS):
        calibrations.append(_calibrate(launcher, work))
        for op in wl.setups:
            child, problems, _wrong = _attempt(launcher, op, work)
            if problems:
                raise RuntimeError(f"set-up command failed: {problems}")
            setup_cpus[op.label].append(child.cpu_s)

    attempted = failed = 0
    correct = True
    rounds = 0
    per_op: dict[str, list[float]] = {op.label: [] for op in wl.ops}  # CPU seconds
    walls: dict[str, list[float]] = {op.label: [] for op in wl.ops}
    peak_rss = 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for op in wl.ops:
            calibrations.append(_calibrate(launcher, work))
            child, problems, wrong = _attempt(launcher, op, work)
            attempted += 1
            per_op[op.label].append(child.cpu_s)
            walls[op.label].append(child.wall_s)
            peak_rss = max(peak_rss, child.rss_mb)
            if problems:
                failed += 1
                correct = correct and not wrong
                for p in problems:
                    log(f"  FAILED {p}")
        rounds += 1

    # The machine's speed during the run: 1 at the reference speed, 1.2 when
    # the same work takes a fifth longer.
    slowdown = statistics.median(calibrations) / CALIBRATION_REFERENCE_S
    medians = {label: statistics.median(cpus) / slowdown for label, cpus in per_op.items()}
    setup = sum(statistics.median(cpus) for cpus in setup_cpus.values()) / slowdown
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "job_ref_s": {"value": sum(medians.values()), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    log(f"{name}: {rounds} rounds, {attempted} commands, {failed} failed;"
        f" calibrate.py median {statistics.median(calibrations):.4f} s CPU over"
        f" {len(calibrations)}, slowdown {slowdown:.3f}")
    for label, cpus in per_op.items():
        log(f"  {label:<22} median {statistics.median(cpus):.4f} s CPU,"
            f" {statistics.median(walls[label]):.4f} s wall, over {len(cpus)}")
    for key, (value, unit) in {**{k: (v["value"], v["unit"]) for k, v in metrics.items()},
                               **wl.summary(medians)}.items():
        log(f"  {key:<22} {value:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, *COMPONENTS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cerf" / "cli.py").is_file():
        log(f"error: no cerf sources under {SRC}; run from a checkout of the repository")
        return 2
    if args.trace:
        sys.path.insert(0, str(SRC))
        import tracing

        WORK.mkdir(exist_ok=True)
        result = tracing.run(args.seed, WORK)
        print(json.dumps(result))
        return 0
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    for name in names:
        print(json.dumps(run_workload(name, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
