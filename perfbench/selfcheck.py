"""Self-check of the benchmark's steadiness.

    python3 perfbench/selfcheck.py [--workloads a,b] [--seeds 10] [--sets 1]
                                   [--seconds S]

Runs perfbench/run.py once per seed (seeds 1..N) on each workload, in one or
more sets, and reports for every end-to-end metric the median and the
distance between the first and third quartile as a share of the median,
against the metric's bound in BENCHMARK.json. It also compares the share of
failed operations across runs and, with two or more sets, each later set's
median against the first. A spread under a third of the bound reads
`steady`. Each run's line gives its whole wall time, set-up and checks
included, for the run budget. The exit code is 0 when every spread but setup_s's is within its
bound, every later median is within its bound and the failed shares agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The run's result line and the run's whole wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in range(1 + k * args.seeds, 1 + (k + 1) * args.seeds):
                result, elapsed = run_once(workload, seed, args.seconds)
                runs.append(result)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                ) + f" ({result['attempted']} ops, {result['failed']} failed, {elapsed:.1f} s)",
                      flush=True)
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
        print(f"\n{workload}: failed share {sorted(shares)}")
        print(f"  {'metric':<14} {'set':>3} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        report[workload] = {}
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, runs in enumerate(sets):
                median, share = spread([r["metrics"][name]["value"] for r in runs])
                verdict = "steady" if share <= bound / 3 else "within" if share <= bound else "OVER"
                if name != "setup_s" and share > bound:
                    ok = False
                if first is None:
                    first = median
                else:
                    drift = worse_by(first, median, metric["better"])
                    verdict += f", {drift:+.3f} vs set 1"
                    if drift > bound:
                        ok = False
                        verdict += " OVER"
                print(f"  {name:<14} {k + 1:>3} {median:>12.5g} {share:>8.4f} {bound:>6}  {verdict}")
                report[workload].setdefault(name, []).append({"median": median, "spread": share})
    out = ROOT / ".perfbench_work" / "selfcheck.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n{'all spreads within bounds' if ok else 'NOT STEADY'}; report in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
