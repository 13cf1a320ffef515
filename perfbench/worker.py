"""One round of one workload in a fresh single-threaded process.

Run by run.py from the root of a checkout; not meant to be run by hand.
The worker imports qsvtsim from ./src, builds the workload's inputs, runs
its op list once with each op timed, checks every output against its
independent reference, and prints one JSON line with the round's figures.
With --setup-only it stops once the inputs are built.  With --trace 1 it
records per-layer spans and adds the layer metrics to its line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qsvtsim

    if not os.path.abspath(qsvtsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"qsvtsim imported from {qsvtsim.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir)
    try:
        if tracer:
            tracer.phase = "setup"
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops()
        setup_s = time.monotonic() - args.spawned
        if tracer:
            tracer.phase = None
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run_round(workload, ops, tracer)
        result["setup_s"] = setup_s
        if tracer:
            extras = {"bytes_out": result.pop("bytes_out")}
            if args.workload == "transform":
                extras["svd_oracle_s.n256"] = workload.oracle_seconds("n256_d41")
            result["layers"] = tracer.metrics({op.label: op.meta for op in ops}, extras)
            tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_round(workload, ops, tracer) -> dict:
    """Time every op, then check the outputs of those that did not fail."""
    outcomes, times, failures = [], [], []
    if tracer:
        tracer.phase = "ops"
    start = time.perf_counter()
    for op in ops:
        if tracer:
            tracer.op = op.label
        t0 = time.perf_counter()
        try:
            outcome, error = op.run(), None
        except Exception as exc:  # a failed op is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if isinstance(outcome, dict) and outcome.get("code", 0) != 0:
            error = f"exit {outcome['code']}: {outcome['stderr'].strip()}"
        outcomes.append(outcome)
        if error:
            failures.append({"op": op.label, "error": error})
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.phase = tracer.op = None

    import checks

    failed = {f["op"] for f in failures}
    mismatches = []
    bytes_out = 0
    for op, outcome in zip(ops, outcomes):
        if op.label in failed:
            continue
        try:
            op.check(outcome)
        except checks.CheckFailed as exc:
            mismatches.append({"op": op.label, "error": str(exc)})
        if isinstance(outcome, dict):
            bytes_out += len(outcome["stdout"].encode())
            bytes_out += sum(len(text.encode()) for text in outcome.get("files", {}).values())
    return {
        "wall_s": wall_s,
        "op_times": times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "correct": not mismatches,
        "mismatches": mismatches,
        "bytes_out": bytes_out,
    }


if __name__ == "__main__":
    sys.exit(main())
