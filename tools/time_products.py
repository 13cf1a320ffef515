"""Time the engine's dense products in two checkouts, in alternating pairs.

Usage, from anywhere:

    python3 tools/time_products.py --parent DIR --change DIR [--out TIMES.json]

Each case runs `bench_pairs.PAIRS` times a side, in a fresh child process
with `bench_pairs.child_env` (BLAS and OpenMP pinned to one thread, the
checkout's own `src` on PYTHONPATH); pair i runs the parent first on even i
and the change first on odd i.  A child builds its seeded input untimed, and
for `matrix_inversion` and `hamiltonian_simulation` makes one untimed call
first, so the phase solve (memoized per process) is not timed.  The JSON holds each side's times per
case with their median and quartiles, and how many pairs the change won.

Cases: `qsvt_unitary` of `embed_general` of a seeded 512 x 512 contraction
(dimension 1024) with 506 seeded phases (degree 505) and of a 256 x 256 one
(dimension 512) with 4 (degree 3), `matrix_inversion` of a 256 x 256
matrix with singular values in [0.1, 1] at kappa = 10, epsilon = 0.01, and
`hamiltonian_simulation` of a seeded 128 x 128 Hermitian matrix of norm 1
at alpha = 1, t = 2, epsilon = 0.01 (dimension 1024).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from bench_pairs import PAIRS, child_env, summary

SETUP = """
import time, numpy as np, qsvtsim
def contraction(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.95 * g / np.linalg.norm(g, 2)
def program(n, degree):
    phases = np.random.default_rng(degree).uniform(-np.pi, np.pi, degree + 1)
    return qsvtsim.QsvtProgram(qsvtsim.embed_general(contraction(n), 1.0),
                               qsvtsim.PhaseSequence(tuple(phases), qsvtsim.CANONICAL))
def inversion_input(n):
    rng = np.random.default_rng(n)
    haar = lambda: np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (haar() * rng.uniform(0.1, 1.0, n)) @ haar()
def hermitian_input(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2)
"""

CASES = {
    "qsvt_unitary_n1024_d505": "prog = program(512, 505)\ncall = lambda: qsvtsim.qsvt_unitary(prog)",
    "qsvt_unitary_n512_d3": "prog = program(256, 3)\ncall = lambda: qsvtsim.qsvt_unitary(prog)",
    "matrix_inversion_n256_k10": ("a = inversion_input(256)\n"
                                  "call = lambda: qsvtsim.matrix_inversion(a, 10.0, 0.01)\n"
                                  "call()"),
    "hamiltonian_simulation_n128": ("h = hermitian_input(128)\n"
                                    "call = lambda: qsvtsim.hamiltonian_simulation(h, 1.0, 2.0, 0.01)\n"
                                    "call()"),
}

TIMED = "start = time.perf_counter()\ncall()\nprint(time.perf_counter() - start)\n"


def time_case(root: str, case: str) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP + CASES[case] + "\n" + TIMED],
                          env=child_env(root), capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    order = (("parent", "change"), ("change", "parent"))
    times = {case: {"parent": [], "change": []} for case in CASES}
    for i in range(PAIRS):
        for case in CASES:
            for side in order[i % 2]:
                times[case][side].append(time_case(sides[side], case))
                print(f"pair {i} {case} {side}: {times[case][side][-1]:.4f} s", file=sys.stderr)
    record = {
        "environment": {"nproc": os.cpu_count(), "blas_threads": 1,
                        "python": platform.python_version(), "machine": platform.machine()},
        "cases": {case: summary(by_side["parent"], by_side["change"])
                  for case, by_side in times.items()},
    }
    text = json.dumps(record, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
