"""The benchmark's three workloads: fixed op lists built from a seed.

A workload is set up once per worker (inputs built, for `transform` its
phase lists solved), then its ops run in order and are timed one by one.
Each op returns an outcome that its check compares, after the timed
region, with an independent reference from `checks`.  The program is
reached only through its public API and `qsvtsim.cli.main`.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import qsvtsim
import qsvtsim.cli

# The algorithms solve every phase list at this tolerance.
SOLVE_TOL = 1e-4


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    meta: dict = field(default_factory=dict)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


# ---------------------------------------------------------------------------
# synth: certified target -> solve_phases, one op per target


# label (degree at the time the ladder was fixed), constructor, arguments,
# scale, check kind, check parameters
SYNTH_TARGETS = (
    ("sign_d19", "sign_poly", (0.1, 0.4), 1.0, "sign", (0.1, 0.4)),
    ("jacos_d26", "jacobi_anger_cos", (15.0, 1e-3), 1.0, "cos", (15.0, 1e-3, 1.0)),
    ("jasin_d27", "jacobi_anger_sin", (15.0, 1e-3), 1.0, "sin", (15.0, 1e-3, 1.0)),
    ("pe_d30", "phase_estimation_poly", (0.1, 0.2), 1.0, "step", (0.1, 0.2, 2**-0.5)),
    ("sign_d41", "sign_poly", (0.05, 0.2), 1.0, "sign", (0.05, 0.2)),
    ("thresh_d48", "eigenvalue_threshold_poly", (0.05, 0.2, 0.5), 1.0, "step", (0.05, 0.2, 0.5)),
    ("interior_d48", "jacobi_anger_cos", (30.0, 1e-4), 0.9, "cos", (30.0, 1e-4, 0.9)),
    ("sign_d77", "sign_poly", (0.01, 0.2), 1.0, "sign", (0.01, 0.2)),
    ("inv_d103", "matrix_inversion_poly", (0.05, 3.0), 1.0, "inv", (0.05, 3.0)),
    ("sign_d153", "sign_poly", (0.01, 0.1), 1.0, "sign", (0.01, 0.1)),
)


class Synth:
    """Phase synthesis on its own: the solver does nearly all the work.

    The targets are fixed so that the degree ladder is the same in every
    run; the seed draws the random points of the independent checks.
    """

    def __init__(self, seed: int, workdir: str):
        self.grid = checks.check_grid(_rng(seed, 1))
        self.options = qsvtsim.SolverOptions(residual_tol=SOLVE_TOL)

    def ops(self) -> list:
        return [self._op(*spec) for spec in SYNTH_TARGETS]

    def _op(self, label, ctor, args, scale, kind, params) -> Op:
        def run():
            poly = getattr(qsvtsim, ctor)(*args)
            if scale != 1.0:
                poly = poly.scaled(scale)
            seq = qsvtsim.solve_phases(poly, self.options)
            return np.array(poly.coeffs), seq.as_array()

        def check(outcome):
            coeffs, phases = outcome
            checks.check_response(phases, coeffs, self.grid, SOLVE_TOL)
            checks.check_function(kind, params, coeffs, self.grid)

        return Op(label, run, check, {"target": label})


# ---------------------------------------------------------------------------
# transform: embed_general + transformed_block on random matrices


# label, matrix size, phase list
TRANSFORM_CASES = (
    ("n64_d41", 64, "d41"),
    ("n64_d153", 64, "d153"),
    ("n128_d41", 128, "d41"),
    ("n128_d153", 128, "d153"),
    ("n256_d41", 256, "d41"),
)
# the phase lists: sign targets of degree 41 and 153
TRANSFORM_TARGETS = {"d41": (0.05, 0.2), "d153": (0.01, 0.1)}


class Transform:
    """The QSVT engine on dense encodings; phase lists are solved in set-up."""

    def __init__(self, seed: int, workdir: str):
        options = qsvtsim.SolverOptions(residual_tol=SOLVE_TOL)
        self.targets = {}
        for name, (eps, delta) in TRANSFORM_TARGETS.items():
            poly = qsvtsim.sign_poly(eps, delta)
            self.targets[name] = (poly, qsvtsim.solve_phases(poly, options))
        self.matrices = {}
        for index, (label, n, _) in enumerate(TRANSFORM_CASES):
            rng = _rng(seed, 100 + index)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self.matrices[label] = g * (0.95 / np.linalg.norm(g, 2))
        self.grid = checks.check_grid(_rng(seed, 2))

    def ops(self) -> list:
        return [self._op(label, n, name) for label, n, name in TRANSFORM_CASES]

    def _op(self, label, n, name) -> Op:
        a = self.matrices[label]
        poly, seq = self.targets[name]

        def run():
            enc = qsvtsim.embed_general(a, 1.0)
            return qsvtsim.transformed_block(qsvtsim.QsvtProgram(enc, seq))

        def check(block):
            checks.check_transform(block, a, seq.as_array(), np.array(poly.coeffs), self.grid)

        return Op(label, run, check, {"n": n, "phases": name})

    def oracle_seconds(self, label: str, repeats: int = 3) -> float:
        """Median time of svd_oracle on an op's matrix and target."""
        phases = {case: name for case, _, name in TRANSFORM_CASES}[label]
        poly, _ = self.targets[phases]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            qsvtsim.svd_oracle(self.matrices[label], poly)
            times.append(time.perf_counter() - start)
        return float(np.median(times))


# ---------------------------------------------------------------------------
# cli: the commands a user runs, in-process through qsvtsim.cli.main


def run_cli(argv: list, emit_dir: str) -> dict:
    """One CLI command with stdout/stderr captured and files in emit_dir."""
    os.environ[qsvtsim.cli.OUTPUT_DIR_ENV] = emit_dir
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qsvtsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_matrix(path: str, m: np.ndarray):
    with open(path, "w") as fh:
        json.dump(checks.matrix_payload(m), fh, sort_keys=True)


ZETA = 2**-0.5
# (x, modulus, sampling seed), fixed: order finding gives up after five
# attempts, and on some seeds it does (see CHANGES.md, FOUND), so these
# triples do not come from the workload seed.
FACTOR_CASES = ((7, 15, 1), (2, 21, 1), (2, 35, 1))
# The Hamiltonian of the op that fails today (see CHANGES.md, FOUND): fixed,
# not drawn from the seed, so the op fails in every run.
FAULT_HAMILTONIAN_SEED, FAULT_HAMILTONIAN_N = 100, 16


def _threshold_instance(rng, n: int, lambda_th: float, delta_lambda: float, low: bool):
    """Hermitian H and psi honouring the promise gap around lambda_th.

    Eigenvalues avoid (lambda_th - delta_lambda - 0.05, lambda_th +
    delta_lambda + 0.05).  A 'low' instance puts weight 0.6 of psi on two
    eigenvalues below the gap; otherwise psi sees only eigenvalues above it.
    """
    gap_lo = lambda_th - delta_lambda - 0.05
    gap_hi = lambda_th + delta_lambda + 0.05
    evals = np.concatenate([rng.uniform(-0.9, gap_lo, 2), rng.uniform(gap_hi, 0.9, n - 2)])
    q = checks.with_singular_values(rng, n, np.ones(n))
    h = (q * evals) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    weights = np.zeros(n)
    if low:
        weights[:2] = 0.3
        weights[2:] = 0.4 / (n - 2)
    else:
        weights[2:] = 1.0 / (n - 2)
    psi = q @ (np.sqrt(weights) * np.exp(2j * np.pi * rng.random(n)))
    return h, psi


class Cli:
    """The paper's algorithms as a shell user runs them, one command per op.

    Every op has its own parameters, so no op hits the phase memo that an
    earlier op in the same worker filled; each worker runs one pass.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.inputs = os.path.join(workdir, "in")
        self.emit = os.path.join(workdir, "emit")
        os.makedirs(self.inputs)
        os.makedirs(self.emit)
        rng = _rng(seed, 3)
        self.grid = checks.check_grid(_rng(seed, 4))
        self.h = {
            "fix16": checks.hermitian(
                np.random.default_rng(FAULT_HAMILTONIAN_SEED), FAULT_HAMILTONIAN_N, 0.9
            ),
            "h16": checks.hermitian(rng, 16, 0.9),
            "h64": checks.hermitian(rng, 64, 0.9),
        }
        self.inv_a = checks.with_singular_values(rng, 8, np.sort(rng.uniform(0.34, 1.0, 8)))
        self.threshold = {}
        for name, lambda_th, delta_lambda in (("exact", 0.0, 0.3), ("sampled", 0.05, 0.25)):
            low = bool(rng.integers(2))
            h, psi = _threshold_instance(rng, 8, lambda_th, delta_lambda, low)
            self.threshold[name] = (h, psi, lambda_th, delta_lambda)
            _write_matrix(self._in(f"th_{name}.json"), h)
            _write_matrix(self._in(f"psi_{name}.json"), psi.reshape(-1, 1))
        for name, m in self.h.items():
            _write_matrix(self._in(f"{name}.json"), m)
        _write_matrix(self._in("inv8.json"), self.inv_a)
        self.marked = {q: int(rng.integers(2**q)) for q in (6, 8, 10)}
        self.qpe = {}
        for name, n in (("exact", 5), ("sampled", 6)):
            k = int(rng.integers(1, 2**n))
            self.qpe[name] = (float(k + rng.uniform(-0.1, 0.1)) / 2**n, n)

    def _in(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def _out(self, name: str) -> str:
        return os.path.join(self.emit, name)

    def _read(self, name: str, base: str | None = None) -> str:
        with open(os.path.join(base or self.emit, name)) as fh:
            return fh.read()

    def _op(self, label, argv, files, check, sampled=False) -> Op:
        def run():
            return run_cli(argv, self.emit)

        def full_check(outcome):
            outcome["files"] = {name: self._read(name) for name in files}
            check(outcome)
            if sampled:
                replay_dir = os.path.join(self.emit, "replay-" + label)
                os.makedirs(replay_dir, exist_ok=True)
                again = run_cli(argv, replay_dir)
                again["files"] = {name: self._read(name, replay_dir) for name in files}
                checks.check_replay(outcome, again)

        return Op(label, run, full_check, {"argv": argv, "files": files})

    def ops(self) -> list:
        s = str(self.seed)
        ops = [
            self._op("phases_sign61", ["phases", "--family", "poly_sign", "--args", "d=61,k=12",
                                       "--json", "sign61.json", "--emit-response", "sign61.csv"],
                     ["sign61.json", "sign61.csv"], self._check_phases(61, 12.0)),
            self._op("phases_sign11", ["phases", "--family", "poly_sign", "--args", "d=11,k=4",
                                       "--json", "sign11.json", "--emit-response", "sign11.csv"],
                     ["sign11.json", "sign11.csv"], self._check_phases(11, 4.0)),
            self._op("response", ["response", "--phases", self._out("sign61.json"), "--npts", "400",
                                  "--csv", "resp61.csv", "--svg", "resp61.svg"],
                     ["resp61.csv", "resp61.svg"], self._check_response),
        ]
        for q in (6, 8, 10):
            ops.append(self._op(
                f"search_q{q}",
                ["search", "--n-qubits", str(q), "--marked", str(self.marked[q]), "--seed", s,
                 "--emit", f"search{q}.json"],
                [f"search{q}.json"], self._check_search(q), sampled=True))
        for name in ("exact", "sampled"):
            _, _, lambda_th, delta_lambda = self.threshold[name]
            mode = ["--exact"] if name == "exact" else ["--seed", s]
            argv = ["threshold", "--matrix", self._in(f"th_{name}.json"),
                    "--psi", self._in(f"psi_{name}.json"), "--alpha", "1",
                    "--lambda-th", repr(lambda_th), "--delta-lambda", repr(delta_lambda),
                    *mode, "--emit", f"threshold_{name}.json"]
            ops.append(self._op(f"threshold_{name}", argv, [f"threshold_{name}.json"],
                                self._check_threshold(name), sampled=name == "sampled"))
        for name in ("exact", "sampled"):
            phi, n = self.qpe[name]
            mode = ["--exact"] if name == "exact" else ["--seed", s]
            ops.append(self._op(f"qpe_{name}", ["qpe", "--phi", repr(phi), "--n", str(n), *mode,
                                                "--emit", f"qpe_{name}.json"],
                                [f"qpe_{name}.json"], self._check_qpe(name),
                                sampled=name == "sampled"))
        for x, modulus, sample_seed in FACTOR_CASES:
            ops.append(self._op(f"factor_{modulus}",
                                ["factor", "--x", str(x), "--modulus", str(modulus),
                                 "--seed", str(sample_seed), "--emit", f"factor{modulus}.json"],
                                [f"factor{modulus}.json"], self._check_factor(x, modulus),
                                sampled=True))
        for name, t, eps in (("fix16", 5.0, 1e-3), ("h16", 4.0, 2e-3), ("h64", 3.0, 1e-3)):
            ops.append(self._op(f"hamsim_{name}",
                                ["hamsim", "--matrix", self._in(f"{name}.json"), "--alpha", "1",
                                 "--t", repr(t), "--epsilon", repr(eps),
                                 "--emit", f"hamsim_{name}.json"],
                                [f"hamsim_{name}.json"], self._check_hamsim(name, t, eps)))
        ops.append(self._op("invert_8", ["invert", "--matrix", self._in("inv8.json"), "--kappa", "3",
                                         "--epsilon", "0.05", "--emit", "invert8.json"],
                            ["invert8.json"], self._check_invert(3.0, 0.05)))
        # fails today: unitarity defect of the degree-61 product (CHANGES.md, FOUND)
        ops.append(self._op("qsvt_fix16_sign61",
                            ["qsvt", "--encoding", self._out("hamsim_fix16.json"),
                             "--phases", self._out("sign61.json"), "--emit", "qsvt_fix16.json"],
                            ["qsvt_fix16.json"], self._check_qsvt("hamsim_fix16.json", "sign61.json",
                                                                 "qsvt_fix16.json")))
        ops.append(self._op("qsvt_h16_sign11",
                            ["qsvt", "--encoding", self._out("hamsim_h16.json"),
                             "--phases", self._out("sign11.json"), "--emit", "qsvt_h16.json"],
                            ["qsvt_h16.json"], self._check_qsvt("hamsim_h16.json", "sign11.json",
                                                                "qsvt_h16.json")))
        return ops

    # -- checks ---------------------------------------------------------------

    @staticmethod
    def _stdout_is_file(outcome, name):
        checks.require(outcome["stdout"].endswith(outcome["files"][name]),
                       f"stdout does not carry {name}")

    def _check_phases(self, d, k):
        def check(outcome):
            name = f"sign{d}.json"
            self._stdout_is_file(outcome, name)
            # the CLI solves to 1e-6 on 1001 points; the denser grid gets 10x
            phases = checks.check_phase_file(outcome["files"][name], d, k, self.grid, 1e-5)
            checks.check_curve_csv(outcome["files"][f"sign{d}.csv"], phases, 400)
        return check

    def _check_response(self, outcome):
        phases = json.loads(self._read("sign61.json"))["phases"]
        checks.check_curve_csv(outcome["files"]["resp61.csv"], phases, 400)
        checks.check_svg(outcome["files"]["resp61.svg"], 400)

    def _record(self, outcome, name):
        self._stdout_is_file(outcome, name)
        return json.loads(outcome["files"][name])

    def _check_search(self, q):
        def check(outcome):
            rec = self._record(outcome, f"search{q}.json")
            marked, n = self.marked[q], 2**q
            checks.require(0 <= rec["decision"] < n, "search decision out of range")
            # the register is read only after the ancilla lands in the block:
            # outcome 0 is the marked state, 1 an unmarked one
            last = rec["shots"][-1]
            checks.require(last in (0, 1), f"search stopped on outcome {last}")
            checks.require((rec["decision"] == marked) == (last == 0),
                           "search decision disagrees with its last shot")
            checks.require(rec["queries"] == len(rec["shots"]) * rec["params"]["poly_degree"],
                           "search query count")
            exact = run_cli(["search", "--n-qubits", str(q), "--marked", str(marked), "--exact"],
                            self.emit)
            amp = json.loads(exact["stdout"])["params"]["marked_amplitude"]
            bound = 1.0 - rec["params"]["delta"] / 2 - SOLVE_TOL
            checks.require(amp >= bound, f"marked amplitude {amp:.6f} below {bound:.6f}")
        return check

    def _check_threshold(self, name):
        def check(outcome):
            rec = self._record(outcome, f"threshold_{name}.json")
            h, psi, lambda_th, delta_lambda = self.threshold[name]
            truth = checks.threshold_truth(h, psi, lambda_th, delta_lambda, ZETA)
            checks.require(truth is not None, "threshold instance breaks its promise gap")
            if name == "exact":
                checks.require(rec["decision"] == truth, f"threshold decided {rec['decision']}")
            eps = rec["params"]["epsilon"]
            p0 = rec["params"]["p0"]
            if truth:
                checks.require(p0 >= ZETA**2 * (1 - eps), f"low instance p0 {p0:.4f}")
            else:
                checks.require(p0 <= 0.5 * eps**2, f"high instance p0 {p0:.4f}")
        return check

    def _check_qpe(self, name):
        def check(outcome):
            phi, n = self.qpe[name]
            rec = self._record(outcome, f"qpe_{name}.json")
            checks.require(outcome["stdout"].startswith(f"theta={rec['decision']['value']:.10g}\n"),
                           "qpe stdout and record disagree")
            bits = [step["bit"] for step in rec["trace"] if "bit" in step]
            checks.require(rec["shots"] == bits and len(bits) >= n, "qpe shots and trace disagree")
            if name == "sampled":
                # later bits depend on the earlier draws; the bound is checked
                # on exact mode, where every bit's probability must be within
                # the per-bit error budget of 0 or 1
                exact = run_cli(["qpe", "--phi", repr(phi), "--n", str(n), "--exact"], self.emit)
                rec = json.loads(exact["stdout"].split("\n", 1)[1])
            checks.check_qpe(rec["decision"]["value"], phi, n)
            budget = rec["params"]["epsilon"] ** 2
            for step in rec["trace"]:
                if "p1" in step:
                    p1 = step["p1"]
                    checks.require(min(p1, 1 - p1) <= budget, f"qpe bit probability {p1:.4f}")
        return check

    def _check_factor(self, x, modulus):
        def check(outcome):
            rec = self._record(outcome, f"factor{modulus}.json")
            want = checks.multiplicative_order(x, modulus)
            checks.require(rec["decision"] == want, f"order {rec['decision']} != {want}")
            checks.require(outcome["stdout"].startswith(f"order={want}\n"), "factor stdout")
        return check

    def _check_hamsim(self, name, t, eps):
        def check(outcome):
            info = json.loads(outcome["stdout"])
            n = self.h[name].shape[0]
            checks.require(info["dim"] == 8 * n and info["alpha"] == 2.0, f"hamsim header {info}")
            checks.check_hamsim(outcome["files"][f"hamsim_{name}.json"], self.h[name], t, eps)
        return check

    def _check_invert(self, kappa, eps):
        def check(outcome):
            info = json.loads(outcome["stdout"])
            checks.require(info["alpha"] == 2 * kappa, f"invert header {info}")
            checks.check_invert(outcome["files"]["invert8.json"], self.inv_a, kappa, eps, SOLVE_TOL)
        return check

    def _check_qsvt(self, encoding, phases, block):
        def check(outcome):
            self._stdout_is_file(outcome, block)
            seq = json.loads(self._read(phases))["phases"]
            checks.check_qsvt_file(outcome["files"][block], self._read(encoding), seq)
        return check


WORKLOADS = {"synth": Synth, "transform": Transform, "cli": Cli}
