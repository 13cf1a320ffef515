import hashlib
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from qsvtsim import (
    BlockEncoding,
    ConditionViolated,
    DegreeCapExceeded,
    DomainError,
    FixedPointParams,
    GiveUp,
    NotUnitary,
    OrderNotFound,
    QsvtProgram,
    QsvtSimError,
    ScaleTooSmall,
    algorithms,
    bernoulli_sample_count,
    eigenvalue_threshold,
    eigenvalue_threshold_poly,
    embed_general,
    extract_block,
    gibbs_poly,
    hamiltonian_simulation,
    hamsim_query_count,
    inverse_poly,
    jacobi_anger_cos,
    jacobi_anger_sin,
    matrix_inversion,
    order_finding_demo,
    phase_estimation_poly,
    phase_estimation_record,
    phase_oracle_block,
    pe_epsilon_for,
    qsvt_phase_estimation,
    qsvt_search,
    qubitize_hermitian,
    rect_poly,
    relu_poly,
    sign_poly,
    sign_poly_from_steepness,
    solve_truncation,
    threshold_repetitions,
    transformed_block,
)
from qsvtsim.poly_approx import inverse_poly_params

ZETA = 1.0 / math.sqrt(2.0)


def _no_solve(*args):
    raise AssertionError("phases solved before the input was checked")


def oracle_1q(phi):
    return np.array([[np.exp(2j * np.pi * phi)]])


VEC1 = np.array([1.0])


def _haar(seed, dim):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


class TestSearch:
    def test_exact_amplitude_bound(self):
        for n_qubits in (1, 2, 4):
            rec = qsvt_search(n_qubits, 0, 0.1, exact=True)
            assert rec.params["marked_amplitude"] >= 1 - 0.05

    def test_sampled_success_rate(self):
        wins = sum(qsvt_search(2, 2, 0.1, seed=s).decision == 2 for s in range(200))
        assert wins / 200 >= 0.9

    def test_replay_determinism(self):
        a = qsvt_search(2, 1, 0.1, seed=42)
        b = qsvt_search(2, 1, 0.1, seed=42)
        assert a.shots == b.shots and a.decision == b.decision
        assert a.queries == b.queries

    def test_validation(self):
        with pytest.raises(DomainError):
            qsvt_search(2, 7, 0.1)
        with pytest.raises(DomainError):
            qsvt_search(2, 0, 0.1, big_delta=1.5)  # above 2/sqrt(N)

    def test_loop_cap_gives_up(self, monkeypatch):
        # at N = 64, delta 0.9 a shot misses the block branch with probability
        # 0.14; seed 4 misses on the first shot, so a cap of 1 is reached
        monkeypatch.setattr(algorithms, "_LOOP_CAP", 1)
        with pytest.raises(GiveUp, match="search loop cap"):
            qsvt_search(6, 1, 0.9, seed=4)
        assert qsvt_search(6, 1, 0.9, seed=0).queries > 0  # seed 0 lands at once


class TestThreshold:
    PSI = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def test_exists_low_probability_bound(self):
        h = np.diag([0.2, 0.8]).astype(complex)
        rec = eigenvalue_threshold(h, 1.0, 0.5, 0.1, ZETA, 0.1, self.PSI, exact=True)
        eps = ZETA / 4
        assert rec.params["p0"] >= ZETA**2 * (1 - eps)
        assert rec.decision is True

    def test_all_high_probability_bound(self):
        h = np.diag([0.8, 0.9]).astype(complex)
        rec = eigenvalue_threshold(h, 1.0, 0.5, 0.1, ZETA, 0.1, self.PSI, exact=True)
        eps = ZETA / 4
        assert rec.params["p0"] <= 0.5 * eps**2
        assert rec.decision is False

    def test_sampled_decisions(self):
        correct = 0
        for s in range(40):
            low = s % 2 == 0
            h = np.diag([0.2, 0.8]) if low else np.diag([0.8, 0.9])
            rec = eigenvalue_threshold(
                h.astype(complex), 1.0, 0.5, 0.1, ZETA, 0.1, self.PSI, seed=s
            )
            correct += rec.decision == low
        assert correct / 40 >= 0.9

    def test_zero_alpha_is_a_typed_error(self):
        with pytest.raises(ScaleTooSmall):
            eigenvalue_threshold(0.5 * np.eye(2), 0.0, 0.0, 0.2, ZETA, 0.1, self.PSI)

    def test_repetition_count(self):
        assert threshold_repetitions(ZETA, 0.1) == math.ceil(18 * math.log(10))

    def test_sampled_runs_past_the_shot_cap_are_rejected_before_any_solve(self, monkeypatch):
        assert threshold_repetitions(0.05, 0.1) == 1657862 <= algorithms.SHOT_CAP
        rec = eigenvalue_threshold(np.diag([0.2, 0.8]), 1.0, 0.5, 0.1, 0.05, 0.1, self.PSI,
                                   seed=1)
        assert len(rec.shots) == 1657862
        # zeta = 0.02 needs 6.5e7 shots: an exact run draws none and is not capped
        rec = eigenvalue_threshold(np.diag([0.2, 0.8]), 1.0, 0.5, 0.1, 0.02, 0.1, self.PSI,
                                   exact=True)
        assert rec.params["repetitions"] == 64760206 and rec.shots == []
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        with pytest.raises(DomainError, match="needs 10361632918474 shots, past the shot cap"):
            eigenvalue_threshold(np.diag([0.2, 0.8]), 1.0, 0.5, 0.1, 1e-3, 0.1, self.PSI, seed=1)

    def test_negative_eigenvalues_handled_by_shift(self):
        h = np.diag([-0.9, 0.8]).astype(complex)
        rec = eigenvalue_threshold(h, 1.0, 0.5, 0.1, ZETA, 0.1, self.PSI, exact=True)
        assert rec.decision is True  # -0.9 is below the 0.5 cut

    @pytest.mark.parametrize("psi, norm", [([0.0, 0.0], "0.0"), ([np.nan, 1.0], "nan"),
                                           ([np.inf, 0.0], "inf")], ids=["zero", "nan", "inf"])
    def test_unusable_state_is_rejected_before_any_solve(self, monkeypatch, psi, norm):
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        with pytest.raises(DomainError, match=f"input state psi has norm {norm}"):
            eigenvalue_threshold(np.diag([0.2, 0.8]), 1.0, 0.5, 0.1, ZETA, 0.1, np.array(psi),
                                 exact=True)

    def test_state_of_the_wrong_length_is_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        with pytest.raises(DomainError, match=r"input state psi has shape \(3,\); .* length 2"):
            eigenvalue_threshold(np.diag([0.2, 0.8]), 1.0, 0.5, 0.1, ZETA, 0.1, np.ones(3),
                                 exact=True)

    def test_dimension_cap_is_checked_first(self, monkeypatch):
        # the shifted encoding has dimension 4n, so n = 300 breaks the 1024 cap
        # before the eigendecomposition of H or any solve
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        monkeypatch.setattr(algorithms, "_scaled_eigh", _no_solve)
        with pytest.raises(DomainError, match=r"dimension 1200 \(4n\) exceeds the cap 1024"):
            eigenvalue_threshold(0.5 * np.eye(300), 1.0, 0.5, 0.1, ZETA, 0.1, np.ones(300),
                                 exact=True)


class TestBernoulli:
    def test_formula_values(self):
        assert bernoulli_sample_count(0.0, 1.0, 1 / math.e) == 2
        assert bernoulli_sample_count(0.0, 0.5, 0.05) == 24

    def test_domain(self):
        with pytest.raises(DomainError):
            bernoulli_sample_count(0.5, 0.5, 0.1)

    def test_empirical_error_rate(self):
        n = bernoulli_sample_count(0.1, 0.6, 0.05)
        rng = np.random.default_rng(5)
        errors = 0
        trials = 2000
        for t in range(trials):
            truth = t % 2
            p = 0.6 if truth else 0.1
            frac = float(np.mean(rng.random(n) < p))
            guess = int(abs(frac - 0.6) < abs(frac - 0.1))
            errors += guess != truth
        assert errors / trials <= 0.05


class TestPhaseEstimation:
    def test_exact_three_bits(self):
        est = qsvt_phase_estimation(oracle_1q(0.625), VEC1, 3, 0.15, 0.2, exact=True)
        assert est.value == 0.625
        assert est.theta_bits == (0, 1, 0, 1)

    def test_rounding_with_carry(self):
        est = qsvt_phase_estimation(oracle_1q(117 / 128), VEC1, 2, 0.2, 0.2, exact=True)
        assert est.value == 1.0

    def test_sigma_trace_for_single_bit(self):
        # phi_m = 1 gives sigma = 0 (p1 ~ 1); phi_m = 0 gives sigma = 1
        # (p1 ~ 0); the polynomial is epsilon-close to the step, so the
        # probabilities sit within ~eps^2/2 of the ideal values
        rec1 = phase_estimation_record(oracle_1q(0.5), VEC1, 1, 0.3, 0.2, exact=True)
        assert rec1.trace[0]["p1"] == pytest.approx(1.0, abs=0.5 * 0.3**2)
        rec0 = phase_estimation_record(oracle_1q(0.0), VEC1, 1, 0.3, 0.2, exact=True)
        assert rec0.trace[0]["p1"] == pytest.approx(0.0, abs=0.5 * 0.3**2)

    def test_per_iteration_failure_bound_sampled(self):
        # p_fail <= eps^2 / 2 whenever sigma sits outside the window
        n, delta, big_delta = 4, 0.1, 0.2
        eps = pe_epsilon_for(delta, n)
        for phi_num in (3, 9, 11):
            phi = phi_num / 16
            rec = phase_estimation_record(
                oracle_1q(phi), VEC1, n, eps, big_delta, seed=7, exact=False
            )
            theta = 0.0
            for entry in rec.trace:
                if entry.get("ones_place"):
                    continue
                sigma = abs(math.cos(math.pi * (2 ** entry["j"] * phi - entry["theta"])))
                ideal = int(sigma < 1 / math.sqrt(2))
                in_window = abs(sigma - 1 / math.sqrt(2)) <= big_delta / 2
                if not in_window:
                    p_fail = entry["p1"] if ideal == 0 else 1 - entry["p1"]
                    assert p_fail <= 0.5 * eps**2 + 1e-12

    def test_zero_state_is_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        with pytest.raises(DomainError, match="input state eigvec has norm 0.0"):
            phase_estimation_record(np.array([[1j]]), np.zeros(1), 3, 0.3, exact=True)

    def test_state_of_the_wrong_length_is_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        with pytest.raises(DomainError, match=r"input state eigvec has shape \(3,\); .* length 2"):
            phase_estimation_record(np.eye(2), np.ones(3), 3, 0.3, exact=True)

    def test_dimension_cap_is_checked_first(self, monkeypatch):
        # each block has dimension 2n, so n = 600 breaks the 1024 cap before
        # the unitarity check or any solve
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        monkeypatch.setattr(algorithms, "require_unitary", _no_solve)
        with pytest.raises(DomainError, match=r"dimension 1200 \(2n\) exceeds the cap 1024"):
            phase_estimation_record(np.eye(600), np.ones(600), 3, 0.3, exact=True)

    def test_unitary_checked_at_the_block_tolerance(self, monkeypatch):
        # u is held to UNITARY_TOL on input, the tolerance of its controlled
        # block: the error names u's own defect 4e-11 before any solve
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        u = np.diag(np.exp(2j * np.pi * np.array([0.125, 0.25, 0.5, 0.75]))) * (1 + 2e-11)
        with pytest.raises(NotUnitary, match="unitarity defect 4.000e-11 exceeds 1.0e-12"):
            phase_estimation_record(u, np.eye(4)[0], 3, 0.1)

    @pytest.mark.parametrize("n", [54, 100, 2000, 3.5])
    def test_bit_cap_is_checked_before_any_work(self, monkeypatch, n):
        # past 53 bits 2^j phi mod 1 keeps no bit of a double phi: the cap (and
        # an integer count) is checked before the phases are solved or u is
        # decomposed
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        monkeypatch.setattr(algorithms, "_eigenframe", _no_solve)
        with pytest.raises(DomainError, match=rf"^{n} bits: .* the bit cap 53$"):
            phase_estimation_record(np.eye(8), np.eye(8)[0], n, 0.1)
        with pytest.raises(AssertionError, match="phases solved"):
            phase_estimation_record(np.eye(8), np.eye(8)[0], 53, 0.1)

    def test_escalation_stays_within_the_bit_cap(self, monkeypatch):
        # every leading bit votes 2 of 5, so a run escalates as far as it may:
        # from 51 bits to 52 and 53, not to 54
        depths = []

        def ambiguous(y, phi, j, theta, phases, rng, exact, votes):
            depths.append(j + 1)
            return 0, 2, 0.4, y

        monkeypatch.setattr(algorithms, "_voted_measure", ambiguous)
        phases = algorithms._phases(1e-4, phase_estimation_poly, 0.4, 0.2)
        est, trace, _ = algorithms._run_phase_estimation(
            np.zeros(1), np.ones(1), 51, phases, None, True, None, 5, True,
        )
        assert [t["escalated_to"] for t in trace if "escalated_to" in t] == [52, 53]
        assert max(depths) == 53 and est.n == 51

    def test_a_defect_within_the_input_bound_keeps_every_bit(self):
        # u passes its own check at 2e-13; the powers U^(2^j) are the turns
        # 2^j phi mod 1 of its eigenframe, so no power can drift past a bound
        phis = np.array([0.125, 0.25, 0.5, 0.75])
        u = np.diag(np.exp(2j * np.pi * phis)) * (1 + 1e-13)
        for k, phi in enumerate(phis):
            assert qsvt_phase_estimation(u, np.eye(4)[k], 6, 0.1, exact=True).value == phi
        assert phase_estimation_record(u, np.eye(4)[0], 6, 0.1).decision.value == 0.125

    def test_haar_256_runs_16_bits(self):
        # squaring a Haar 256 u sixteen times broke UNITARY_TOL; the eigenframe
        # reads every bit of an eigenphase on the 2^-16 grid
        q = _haar(256, 256)
        phis = np.random.default_rng(16).integers(0, 2**16, 256) / 2**16
        u = (q * np.exp(2j * np.pi * phis)) @ q.conj().T
        est = qsvt_phase_estimation(u, q[:, 7], 16, 0.1, exact=True)
        assert est.value == phis[7]

    def test_memory_does_not_grow_with_the_bit_count(self):
        # a run holds U's eigenframe and O(N) floats a bit, never a power
        u, e0 = np.eye(256), np.eye(256)[0]
        phase_estimation_record(u, e0, 4, 0.1, exact=True)  # the phases, memoized
        peaks = []
        for n in (4, 48):
            tracemalloc.start()
            try:
                phase_estimation_record(u, e0, n, 0.1, exact=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20

    def test_epsilon_cap(self):
        with pytest.raises(DomainError):
            qsvt_phase_estimation(oracle_1q(0.5), VEC1, 3, 1.5, 0.2)

    def test_matrix_oracle(self, rng):
        # a 2x2 unitary with a known eigenvector
        phi = 0.375
        q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        u = q @ np.diag([np.exp(2j * np.pi * phi), np.exp(2j * np.pi * 0.8)]) @ q.conj().T
        est = qsvt_phase_estimation(u, q[:, 0], 3, 0.15, 0.2, exact=True)
        assert est.value == phi


EIGENFRAME_CASES = {
    "modmul_2_35": lambda: algorithms._modmul_unitary(2, 35),  # eigenphases s/12, degenerate
    "modmul_7_64": lambda: algorithms._modmul_unitary(7, 64),
    "identity": lambda: np.eye(16, dtype=complex),
    "minus_identity": lambda: -np.eye(16, dtype=complex),
    "exact_minus_one": lambda: np.diag([-1.0, 1j, -1j, 1.0, -1.0]).astype(complex),
    "haar_256": lambda: _haar(256, 256),
}


class TestEigenframe:
    """Phase estimation reads U once: Q orthonormal and phi in [0, 1) with
    u = Q diag(exp(2 pi i phi)) Q^dag, and every measurement from them."""

    @pytest.mark.parametrize("name", sorted(EIGENFRAME_CASES))
    def test_orthonormal_frame_of_u(self, name):
        u = EIGENFRAME_CASES[name]()
        q, phi = algorithms._eigenframe(u)
        assert np.all((0.0 <= phi) & (phi < 1.0))
        assert np.max(np.abs(q.conj().T @ q - np.eye(len(u)))) <= 1e-14
        assert np.max(np.abs((q * np.exp(2j * np.pi * phi)) @ q.conj().T - u)) <= 1e-14

    @pytest.mark.parametrize("name", ["modmul_2_35", "haar_64"])
    @pytest.mark.parametrize("j", range(9))
    def test_measurement_matches_the_circuit(self, name, j):
        # p1 of the Hadamard test of the transformed phase-oracle block T on x,
        # 1/2 |x + T x|^2 / (1 + |T x|^2), with T read from the built encoding
        # of (I + exp(-2 pi i theta) U^(2^j)) / 2; the two differ by at most
        # 2.2e-14 over these cases
        u = algorithms._modmul_unitary(2, 35) if name == "modmul_2_35" else _haar(64, 64)
        q, phi = algorithms._eigenframe(u)
        phases = algorithms._phases(1e-4, phase_estimation_poly, pe_epsilon_for(0.1, 12), 0.2)
        rng = np.random.default_rng(j)
        for k in rng.integers(0, 512, 4):
            theta = Fraction(int(k), 512)
            x = rng.standard_normal(len(u)) + 1j * rng.standard_normal(len(u))
            x /= np.linalg.norm(x)
            tx = transformed_block(
                QsvtProgram(phase_oracle_block(u, j, float(theta)), phases)
            ) @ x
            ref = 0.5 * np.linalg.norm(x + tx) ** 2 / (1.0 + np.linalg.norm(tx) ** 2)
            p1 = algorithms._voted_measure(q.conj().T @ x, phi, j, theta, phases, None, True, 1)[2]
            assert abs(p1 - ref) <= 1e-13


class TestOrderFinding:
    def test_known_orders(self):
        assert order_finding_demo(7, 15, seed=3).decision == 4
        assert order_finding_demo(4, 15, seed=3).decision == 2

    def test_success_rate(self):
        wins = 0
        for s in range(60):
            try:
                wins += order_finding_demo(7, 15, seed=s).decision == 4
            except OrderNotFound:
                pass
        assert wins / 60 >= 0.75

    def test_accuracy_criterion_met_by_bit_budget(self):
        rec = order_finding_demo(7, 15, seed=3)
        n = rec.params["n"]
        r = rec.decision
        assert 2.0 ** (-n) <= 1 / (2 * r * r)

    def test_validation(self):
        with pytest.raises(DomainError):
            order_finding_demo(3, 9, seed=0)  # gcd != 1
        with pytest.raises(DomainError):
            order_finding_demo(3, 128, seed=0)


# sha256 of RunRecord.to_json() for seeded phase-estimation runs: the three
# factor cases of the cli benchmark, a sampled run, the escalation case of
# TestPhaseEstimationStrategies and a run with phase errors that reaches the
# ones-place carry probe.  A refactor of the shared loop must keep every
# bit, queries and p1 value of these records.  The p1 values are QSP
# responses of solved phases at singular values read from U's eigenframe,
# so the digests also pin the rounding of the eigenframe, the QSP sweep and
# the phase solver: a change to the order of their floating-point
# operations re-pins them after checking that every other field is
# unchanged and p1 moved only in the last bits.
PE_REPLAYS = {
    "factor_7_15": (
        lambda: order_finding_demo(7, 15, seed=1),
        "913bf10b6fde415d82c6b75f35f44c49129b2ed2741a934f22677411b75d67aa",
    ),
    "factor_2_21": (
        lambda: order_finding_demo(2, 21, seed=1),
        "234fc912028bf55bd4bb81ff9d8ffee654bb1a5aebea5681b96578ee2abe4f6c",
    ),
    "factor_2_35": (
        lambda: order_finding_demo(2, 35, seed=1),
        "17ebcccccce9c3f2e7c833dcbca1534b24fe1319d594096721a529d6187a7d44",
    ),
    "qpe_sampled": (
        lambda: phase_estimation_record(
            oracle_1q(0.3), VEC1, 6, pe_epsilon_for(0.1, 6), 0.2, seed=4
        ),
        "6040c3ec790c78469cdd7d4e78192a490e656b33691204f2958a964128a4a4fd",
    ),
    "qpe_escalation": (
        lambda: phase_estimation_record(
            oracle_1q(0.625 + 1 / 16), VEC1, 3, 0.4, 0.2, seed=2,
            majority_votes=5, escalate_ambiguous=True,
        ),
        "8716c8b2c8e86c48c566b662017dea302a834bbf91bb9b8417e4ec953d6b2802",
    ),
    "qpe_phase_errors": (
        lambda: phase_estimation_record(
            oracle_1q(0.995), VEC1, 5, pe_epsilon_for(0.1, 5), 0.2, seed=3,
            phase_errors=[0.01, -0.02, 0.005, 0.0, -0.01],
        ),
        "b7a4084632855768b296ff02415759bb05201aabbef8525ed10461f482989e6d",
    ),
}


@pytest.mark.parametrize("name", sorted(PE_REPLAYS))
def test_phase_estimation_replays(name):
    make, digest = PE_REPLAYS[name]
    assert hashlib.sha256(make().to_json().encode()).hexdigest() == digest


class TestHamiltonianSimulation:
    def test_identity_at_time_zero(self):
        h = np.diag([0.3, 0.7]).astype(complex)
        enc = hamiltonian_simulation(h, 1.0, 0.0, 1e-2)
        assert np.max(np.abs(enc.alpha * extract_block(enc) - np.eye(2))) <= 1e-2

    def test_diagonal_evolution(self):
        h = np.diag([0.3, 0.7]).astype(complex)
        enc = hamiltonian_simulation(h, 1.0, 1.0, 1e-3)
        approx = enc.alpha * extract_block(enc)
        exact = np.diag(np.exp(-1j * np.array([0.3, 0.7])))
        phase = np.vdot(approx, exact)
        phase /= abs(phase)
        assert np.max(np.abs(approx * phase - exact)) <= 1e-3

    def test_degree_cap_checked_before_any_solve(self):
        # t = 1e4 needs a cosine part of degree 13,598: it fails at once
        # instead of starting the Newton solve
        h = np.diag([0.3, 0.7]).astype(complex)
        start = time.perf_counter()
        with pytest.raises(DegreeCapExceeded, match="degree 13598 exceeds the degree cap 512"):
            hamiltonian_simulation(h, 1.0, 1e4, 1e-3)
        assert time.perf_counter() - start < 0.05

    def test_query_count_formula(self):
        for t, eps in [(1.0, 1e-2), (5.0, 1e-3)]:
            k_prime = solve_truncation(t, eps / 4).k_prime
            assert hamsim_query_count(1.0, t, eps) == 4 * k_prime + 1

    def test_query_count_at_time_zero(self):
        # k' = 0: the cosine part is the constant, the sine part one query
        assert hamsim_query_count(1.0, 0.0, 1e-3) == 1

    def test_negative_time_is_adjoint(self):
        h = np.diag([0.4, -0.2]).astype(complex)
        fwd = hamiltonian_simulation(h, 1.0, 1.0, 1e-3)
        bwd = hamiltonian_simulation(h, 1.0, -1.0, 1e-3)
        f = 2 * extract_block(fwd)
        b = 2 * extract_block(bwd)
        assert np.max(np.abs(f @ b - np.eye(2))) <= 5e-3

    def test_error_additivity(self):
        # combined error is bounded by the sum of the component errors
        t, eps = 3.0, 1e-2
        h = np.diag([0.5, -0.3]).astype(complex)
        enc = hamiltonian_simulation(h, 1.0, t, eps)
        approx = 2 * extract_block(enc)
        grid = np.array([0.5, -0.3])
        cos_p = jacobi_anger_cos(t, eps / 4)
        sin_p = jacobi_anger_sin(t, eps / 4)
        cos_err = np.max(np.abs(cos_p(grid) - np.cos(t * grid)))
        sin_err = np.max(np.abs(sin_p(grid) - np.sin(t * grid)))
        exact = np.diag(np.exp(-1j * t * grid))
        assert np.max(np.abs(approx - exact)) <= cos_err + sin_err + 1e-3

    def test_scale_validation(self):
        from qsvtsim import ScaleTooSmall

        with pytest.raises(ScaleTooSmall):
            hamiltonian_simulation(np.eye(2) * 2.0, 1.0, 1.0, 1e-2)
        with pytest.raises(ScaleTooSmall):
            hamiltonian_simulation(np.eye(2) * 0.5, 0.0, 1.0, 1e-2)
        with pytest.raises(DomainError):
            hamiltonian_simulation(np.eye(2) * 0.5, 1.0, 1.0, 0.5)

    def test_dimension_cap_is_checked_first(self, rng):
        # the output has dimension 8n, so n = 129 breaks the 1024 cap
        g = rng.standard_normal((129, 129)) + 1j * rng.standard_normal((129, 129))
        h = (g + g.conj().T) / 2
        h *= 0.9 / np.linalg.norm(h, 2)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="dimension 1032 .* exceeds the cap 1024"):
            hamiltonian_simulation(h, 1.0, 5.0, 1e-3)
        assert time.perf_counter() - start < 0.05


class TestMatrixInversion:
    def test_diagonal_example(self):
        a = np.diag([0.5, 1.0]).astype(complex)
        enc = matrix_inversion(a, 2.0, 0.02)
        approx = enc.alpha * extract_block(enc)
        assert np.max(np.abs(approx - np.diag([2.0, 1.0]))) <= 0.02

    def test_a_singular_value_at_one_over_kappa_is_within_epsilon(self):
        # the polynomial's window ends at x = 1/kappa: certified on a grid
        # that missed it there, this returned 9.98979 at sigma = 0.1
        enc = matrix_inversion(np.diag([1.0, 0.1]), 10.0, 0.01)
        approx = enc.alpha * extract_block(enc)
        assert np.max(np.abs(approx - np.diag([1.0, 10.0]))) <= 0.01

    def test_identity(self):
        enc = matrix_inversion(np.eye(2, dtype=complex), 2.0, 0.05)
        assert np.max(np.abs(enc.alpha * extract_block(enc) - np.eye(2))) <= 0.05

    def test_linear_system_mode(self):
        a = np.diag([0.5, 1.0]).astype(complex)
        enc = matrix_inversion(a, 2.0, 0.02)
        b = np.array([1.0, 0.0])
        x = enc.alpha * (extract_block(enc) @ b)
        assert np.max(np.abs(x - np.array([2.0, 0.0]))) <= 0.02

    def test_condition_validation(self):
        with pytest.raises(ConditionViolated):
            matrix_inversion(np.diag([0.1, 1.0]).astype(complex), 2.0, 0.05)

    @pytest.mark.parametrize("kappa", [0.0, -0.0, math.nan, math.inf, -2.0])
    def test_kappa_outside_the_domain_is_rejected_before_any_svd(self, monkeypatch, kappa):
        # the domain is checked before the SVD, whose condition check divides by kappa
        monkeypatch.setattr(np.linalg, "svd", _no_solve)
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        with pytest.raises(DomainError, match="kappa"):
            matrix_inversion(np.diag([0.8, 0.5]), kappa, 0.05)

    def test_a_singular_value_past_the_completion_bound_violates_the_condition(self):
        # alpha 1 bounds the largest singular value at 1 + 1e-12: one just past
        # it is the caller's condition, not a scale the caller never passed
        with pytest.raises(ConditionViolated):
            matrix_inversion(np.diag([1 + 5e-10, 0.5]), 3.0, 0.05)
        matrix_inversion(np.diag([1 + 5e-13, 0.5]), 3.0, 0.05)

    def test_one_svd_of_the_input_serves_the_check_and_the_completion(self, monkeypatch):
        # one SVD of A^dag; the output average's block SVD is read from the
        # completion's factors, W diag(Re P(s)) V^dag, with no decomposition
        svd, shapes = np.linalg.svd, []

        def counted(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        matrix_inversion(np.diag([0.5, 1.0, 0.75]).astype(complex), 2.0, 0.05)
        assert shapes == [(3, 3)]

    def test_kappa_20_at_n_64(self):
        # singular values spread over [1/kappa, 1], both ends included
        rng = np.random.default_rng(64)
        n, kappa, eps = 64, 20.0, 0.01
        u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        sigma = np.concatenate([[1 / kappa, 1.0], rng.uniform(1 / kappa, 1.0, n - 2)])
        a = ((u * sigma) @ v.T).astype(complex)
        enc = matrix_inversion(a, kappa, eps)
        assert np.linalg.norm(enc.alpha * extract_block(enc) - np.linalg.inv(a), 2) <= eps

    def test_dimension_cap_is_checked_first(self):
        # the output has dimension 4n, so n = 257 breaks the 1024 cap
        start = time.perf_counter()
        with pytest.raises(DomainError, match="dimension 1028 .* exceeds the cap 1024"):
            matrix_inversion(0.5 * np.eye(257, dtype=complex), 3.0, 0.05)
        assert time.perf_counter() - start < 0.05

    def test_non_square_matrix_is_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        a = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        with pytest.raises(DomainError, match=r"square matrix, got shape \(2, 3\)"):
            matrix_inversion(a, 30.0, 0.01)


def test_run_record_json_roundtrip():
    rec = qsvt_search(2, 1, 0.1, seed=9)
    payload = json.loads(rec.to_json())
    assert payload["algorithm"] == "search"
    assert payload["decision"] == rec.decision
    assert payload["seed"] == 9
    rec2 = phase_estimation_record(oracle_1q(0.625), VEC1, 3, 0.15, 0.2, exact=True)
    payload = json.loads(rec2.to_json())
    assert payload["decision"]["value"] == 0.625


class TestPhaseEstimationStrategies:
    def test_majority_votes_tolerate_large_epsilon(self):
        # per-shot failure is O(1) at eps = 0.45; an 11-vote majority still
        # recovers every bit
        wins = 0
        for s in range(40):
            est = qsvt_phase_estimation(
                oracle_1q(0.625), VEC1, 3, 0.45, 0.2, seed=s, majority_votes=11
            )
            wins += est.value == 0.625
        assert wins / 40 >= 0.95

    def test_escalation_on_ambiguous_leading_bit(self):
        # sigma at the first iteration sits exactly on the transition; the
        # escalating run restarts one bit deeper and still lands within 2^-n
        phi = 0.625 + 1 / 16
        rec = phase_estimation_record(
            oracle_1q(phi), VEC1, 3, 0.4, 0.2, seed=2,
            majority_votes=5, escalate_ambiguous=True,
        )
        assert any("escalated_to" in t for t in rec.trace)
        assert abs(rec.decision.value - phi) <= 2**-3

    def test_vote_count_validation(self):
        with pytest.raises(DomainError):
            qsvt_phase_estimation(oracle_1q(0.5), VEC1, 2, 0.3, majority_votes=2)

    def test_strategies_default_off(self):
        rec = phase_estimation_record(oracle_1q(0.625), VEC1, 3, 0.15, 0.2, exact=True)
        assert rec.params["majority_votes"] == 1
        assert rec.params["escalate_ambiguous"] is False


_EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: sign_poly(0.1, math.nan),
        lambda: eigenvalue_threshold_poly(0.1, math.nan, 0.5),
        lambda: inverse_poly(0.1, math.nan),
        lambda: rect_poly(0.1, math.nan),
        lambda: gibbs_poly(math.nan, 10),
        lambda: gibbs_poly(math.inf, 10),
        lambda: relu_poly(0.5, math.nan, 10),
        lambda: relu_poly(math.nan, 5.0, 10),
        lambda: sign_poly_from_steepness(-3, 4.0),
        lambda: FixedPointParams(10**12, 0.5),
        lambda: threshold_repetitions(0.7, 2.0),
        lambda: threshold_repetitions(0.7, 0.0),
        lambda: threshold_repetitions(math.nan, 0.1),
        lambda: threshold_repetitions(1e-100, 0.1),
        lambda: embed_general(_EMPTY, 1.0),
        lambda: qubitize_hermitian(_EMPTY, 1.0),
        lambda: BlockEncoding(_EMPTY, _EMPTY, _EMPTY, 1.0),
        lambda: hamiltonian_simulation(_EMPTY, 1.0, 1.0, 0.01),
        lambda: matrix_inversion(_EMPTY, 2.0, 0.1),
        lambda: eigenvalue_threshold(_EMPTY, 1.0, 0.5, 0.1, ZETA, 0.1, np.ones(0), exact=True),
        lambda: phase_estimation_record(_EMPTY, np.ones(0), 3, 0.1, 0.2, 0, True),
        lambda: inverse_poly_params(0.1, 1e160),
        lambda: inverse_poly(0.1, 1e160),
        lambda: inverse_poly_params(0.1, 1e150),
    ],
    ids=["sign-delta-nan", "step-delta-nan", "inverse-kappa-nan", "rect-kappa-nan",
         "gibbs-beta-nan", "gibbs-beta-inf", "relu-steepness-nan", "relu-delta-nan",
         "sign-degree-negative", "fpsearch-d-huge", "reps-delta-2", "reps-delta-0",
         "reps-zeta-nan", "reps-zeta-underflow", "embed-0x0", "qubitize-0x0",
         "encoding-0x0", "hamsim-0x0", "invert-0x0", "threshold-0x0", "qpe-0x0",
         "inverse-params-kappa-huge", "inverse-kappa-huge", "inverse-params-kappa-1e150"],
)
def test_unusable_arguments_raise_a_typed_error(call):
    # each of these once reached numpy or the float conversions unchecked
    with np.errstate(all="raise"), pytest.raises(QsvtSimError):
        call()


class TestSolveShare:
    """Each run solves its phases to an eighth of its own budget (1e-4 at
    most), so its result meets an epsilon or delta below 1e-4; when every
    run solved to 1e-4, each of these missed it by about 5e-5."""

    @pytest.fixture(scope="class")
    def h16(self):
        g = np.random.default_rng(7).standard_normal((2, 16, 16))
        h = g[0] + 1j * g[1]
        h = (h + h.conj().T) / 2
        return h * 0.9 / np.linalg.norm(h, 2)

    @pytest.mark.parametrize("t", [1.0, 5.0, 50.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_hamsim_meets_its_epsilon(self, h16, t, eps):
        enc = hamiltonian_simulation(h16, 1.0, t, eps)
        exact = scipy.linalg.expm(-1j * t * h16)
        assert np.linalg.norm(enc.alpha * extract_block(enc) - exact, 2) <= eps

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
    def test_exact_search_meets_its_delta(self, delta):
        rec = qsvt_search(4, 3, delta, exact=True)
        assert 1.0 - rec.params["marked_amplitude"] <= delta

    def test_exact_threshold_meets_its_epsilon(self, monkeypatch):
        # the transform the run reads, at the shifted eigenvalues outside the
        # window, is within epsilon of the step sign(cut - x)
        solved, phases = algorithms._phases, []

        def recorded(*args):
            phases.append(solved(*args))
            return phases[-1]

        monkeypatch.setattr(algorithms, "_phases", recorded)
        q = scipy.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))[0]
        h = (q * [-0.8, -0.5, -0.3, 0.3, 0.5, 0.9]) @ q.T
        eps = 1e-6
        eigenvalue_threshold(h, 1.0, 0.0, 0.3, ZETA, 0.1, q[:, 0], exact=True, epsilon=eps)
        x = 0.5 * (1.0 + scipy.linalg.eigh(h, eigvals_only=True))
        f = algorithms.response_many(phases[0], x).real
        assert np.max(np.abs(f - np.sign(0.5 - x))) <= eps

    def test_inversion_meets_its_epsilon(self):
        # its output is 2 kappa times the transform, so its budget is eps / kappa
        rng = np.random.default_rng(7)
        u, v = (scipy.linalg.qr(rng.standard_normal((8, 8)))[0] for _ in range(2))
        kappa, eps = 1.5, 2e-4
        a = (u * np.linspace(1.0 / kappa, 1.0, 8)) @ v
        enc = matrix_inversion(a, kappa, eps)
        assert np.linalg.norm(enc.alpha * extract_block(enc) - scipy.linalg.inv(a), 2) <= eps

    def test_the_memo_keys_on_the_tolerance(self, monkeypatch):
        # the same target at two budgets is two solves; a repeat is none
        solve, tols = algorithms.solve_phases, []

        def counted(target, options):
            tols.append(options.residual_tol)
            return solve(target, options)

        monkeypatch.setattr(algorithms, "solve_phases", counted)
        for budget in (1e-2, 1e-6, 1e-2):
            algorithms._phases(algorithms._solve_tol(budget), sign_poly, 0.0123, 0.4321)
        assert tols == [1e-4, 1e-6 / 8]


class TestPhaseEstimationInputs:
    @pytest.mark.parametrize("delta, n, message", [
        (-1, 3, "delta must lie in (0, 1), got -1"),
        (0.0, 3, "delta must lie in (0, 1), got 0.0"),
        (1.0, 3, "delta must lie in (0, 1), got 1.0"),
        (math.nan, 3, "delta must lie in (0, 1), got nan"),
        (0.1, -1, "bit count n must be an integer >= 1, got -1"),
        (0.1, 0, "bit count n must be an integer >= 1, got 0"),
        (0.1, 2.5, "bit count n must be an integer >= 1, got 2.5"),
    ], ids=["delta-negative", "delta-0", "delta-1", "delta-nan", "n-negative", "n-0",
            "n-float"])
    def test_the_epsilon_rule_names_its_bad_argument(self, delta, n, message):
        # these once ended in a raw ValueError (math domain error) or
        # ZeroDivisionError from the square root
        with pytest.raises(DomainError, match=re.escape(message)):
            pe_epsilon_for(delta, n)

    @pytest.mark.parametrize("kwargs, message", [
        ({"phase_errors": [0.01]}, "phase_errors must be 5 finite numbers"),
        ({"phase_errors": [0.01] * 6}, "phase_errors must be 5 finite numbers"),
        ({"phase_errors": [math.nan] * 5}, "phase_errors must be 5 finite numbers"),
        ({"phase_errors": [math.inf] * 5}, "phase_errors must be 5 finite numbers"),
        ({"phase_errors": ["x"] * 5}, "phase_errors must be 5 finite numbers"),
        ({"majority_votes": algorithms.VOTE_CAP + 2}, "up to the vote cap 1001"),
        ({"majority_votes": 3.0}, "up to the vote cap 1001"),
    ], ids=["errors-short", "errors-long", "errors-nan", "errors-inf", "errors-text",
            "votes-past-cap", "votes-float"])
    def test_caller_sized_inputs_are_rejected_before_any_solve(self, monkeypatch, kwargs,
                                                               message):
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        monkeypatch.setattr(algorithms, "_eigenframe", _no_solve)
        with pytest.raises(DomainError, match=message):
            phase_estimation_record(oracle_1q(0.3), VEC1, 5, 0.15, exact=True, **kwargs)

    @pytest.mark.parametrize("retries", [-1, 0, 2.5, algorithms.RETRY_CAP + 1])
    def test_order_finding_retries_are_checked_before_any_solve(self, monkeypatch, retries):
        monkeypatch.setattr(algorithms, "_phases", _no_solve)
        monkeypatch.setattr(algorithms, "_eigenframe", _no_solve)
        with pytest.raises(DomainError, match=f"retries = {retries}: .* the retry cap 1000"):
            order_finding_demo(7, 15, seed=1, retries=retries)
