"""qsvtsim benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth|transform|cli --seed N \
        --seconds S --trace 0|1

Each round of a workload runs in a fresh worker process (perfbench/worker.py)
with BLAS and OpenMP pinned to one thread.  With --trace 0 the command runs
whole rounds until S seconds have passed, takes extra set-up-only workers
until it has SETUP_SAMPLES set-up times, and prints the end-to-end metrics
as medians over the rounds.  With --trace 1 it runs one untraced and one
traced round, prints the tracing overhead and the per-layer metrics.  The
last line of stdout is the JSON result.  The command exits non-zero without
a result when the program or a worker is missing or breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("synth", "transform", "cli")
SETUP_SAMPLES = 9
# the whole command must end within 180 s
DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkerError(Exception):
    pass


def spawn(root: str, workload: str, seed: int, deadline: float, *extra) -> dict:
    """Run one worker to completion and return its JSON line."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("QSVTSIM_OUTPUT_DIR", None)
    spawned = time.monotonic()
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_problems(rounds: list):
    for r in rounds:
        for item in r["failures"]:
            print(f"failed op {item['op']}: {item['error']}", file=sys.stderr)
        for item in r["mismatches"]:
            print(f"wrong output {item['op']}: {item['error']}", file=sys.stderr)


def end_to_end(root: str, workload: str, seed: int, seconds: int, deadline: float) -> dict:
    start = time.monotonic()
    rounds = []
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(spawn(root, workload, seed, deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(root, workload, seed, deadline, "--setup-only")["setup_s"])
    report_problems(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_p50_s": (statistics.median(statistics.median(r["op_times"]) for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    print(f"{workload}: {len(rounds)} rounds, {len(setups)} set-ups", file=sys.stderr)
    return result(rounds, metrics)


def traced(root: str, workload: str, seed: int, deadline: float) -> dict:
    plain = spawn(root, workload, seed, deadline)
    with_spans = spawn(root, workload, seed, deadline, "--trace", "1")
    report_problems([plain, with_spans])
    layers = with_spans["layers"]
    import tracing

    self_sum = sum(layers[name] for name in tracing.SELF_TIME_METRICS)
    print(f"tracing overhead {workload}: traced wall_s {with_spans['wall_s']:.4f} s"
          f" - untraced {plain['wall_s']:.4f} s = {with_spans['wall_s'] - plain['wall_s']:.4f} s")
    print(f"layer self times {workload}: sum {self_sum:.4f} s of traced wall_s"
          f" {with_spans['wall_s']:.4f} s")
    units = dict(tracing.PER_LAYER)
    metrics = {name: (layers[name], units[name]) for name, _ in tracing.PER_LAYER}
    out = result([plain, with_spans], metrics)
    out["correct"] = out["correct"] and self_sum <= with_spans["wall_s"]
    return out


def result(rounds: list, metrics: dict) -> dict:
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qsvtsim", "__init__.py")):
        print(f"error: no qsvtsim sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    try:
        if args.trace:
            out = traced(root, args.workload, args.seed, deadline)
        else:
            out = end_to_end(root, args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
