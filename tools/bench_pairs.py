"""Compare two checkouts on the perfbench workloads and the CLI cold start.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH.json \
        [--seed 101]

Pair i of PAIRS runs `perfbench/run.py --seed SEED+i --seconds SECONDS` on
every workload that this checkout's BENCHMARK.json declares, in each
checkout's own directory, parent first on even i and
change first on odd i.  The cold start is `python -m qsvtsim.cli --help`
timed from spawn to exit, COLD_RUNS times a side, alternating sides; the
import RSS is ru_maxrss after `import qsvtsim.cli`.
Every child runs with BLAS and OpenMP pinned to one thread.  The JSON holds
the medians, quartiles and raw values of both sides, how many pairs the
change won on each metric (lower is better), and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                              "BENCHMARK.json")
PAIRS = 10  # the fewest alternating pairs a claimed gain is judged on
SECONDS = 10
COLD_RUNS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RSS_SCRIPT = ("import resource, qsvtsim.cli; "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)")


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QSVTSIM_OUTPUT_DIR"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def declared_workloads() -> tuple:
    """The workload names BENCHMARK.json declares, in its order."""
    with open(BENCHMARK_JSON) as fh:
        return tuple(w["name"] for w in json.load(fh)["workloads"])


def run_workload(root: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            **{name: m["value"] for name, m in out["metrics"].items()}}


def cold_start_s(root: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qsvtsim.cli", "--help"], env=child_env(root),
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def import_rss_mb(root: str) -> float:
    proc = subprocess.run([sys.executable, "-c", RSS_SCRIPT], env=child_env(root),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def summary(parent: list, change: list) -> dict:
    def stats(values):
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": q2, "q1": q1, "q3": q3, "values": values}

    return {"parent": stats(parent), "change": stats(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)), "pairs": len(parent)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    order = (("parent", "change"), ("change", "parent"))

    names = declared_workloads()
    runs = {w: {"parent": [], "change": []} for w in names}
    seeds = [args.seed + i for i in range(PAIRS)]
    for i, seed in enumerate(seeds):
        for workload in names:
            for side in order[i % 2]:
                runs[workload][side].append(run_workload(sides[side], workload, seed))
                print(f"pair {i} {workload} {side}: {runs[workload][side][-1]}",
                      file=sys.stderr)

    cold = {"parent": [], "change": []}
    rss = {"parent": [], "change": []}
    for i in range(COLD_RUNS):
        for side in order[i % 2]:
            cold[side].append(cold_start_s(sides[side]))
            rss[side].append(import_rss_mb(sides[side]))

    workloads = {}
    for workload, by_side in runs.items():
        metrics = [k for k in by_side["parent"][0] if k not in ("correct", "attempted", "failed")]
        workloads[workload] = {
            "all_correct": all(r["correct"] for rs in by_side.values() for r in rs),
            "failed_ops": sum(r["failed"] for rs in by_side.values() for r in rs),
            "metrics": {m: summary([r[m] for r in by_side["parent"]],
                                   [r[m] for r in by_side["change"]]) for m in metrics},
        }
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "seeds": seeds,
        "environment": {
            "nproc": os.cpu_count(),
            "blas_threads": 1,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
        },
        "workloads": workloads,
        "cli_cold_start_s": summary(cold["parent"], cold["change"]),
        "import_cli_rss_mb": summary(rss["parent"], rss["change"]),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
