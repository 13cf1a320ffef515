import hashlib
import json
import math
import time

import numpy as np
import pytest

from qsvtsim import (
    ConditionViolated,
    DegreeCapExceeded,
    DomainError,
    GiveUp,
    OrderNotFound,
    ScaleTooSmall,
    algorithms,
    bernoulli_sample_count,
    eigenvalue_threshold,
    extract_block,
    hamiltonian_simulation,
    hamsim_query_count,
    jacobi_anger_cos,
    jacobi_anger_sin,
    matrix_inversion,
    order_finding_demo,
    phase_estimation_record,
    pe_epsilon_for,
    qsvt_phase_estimation,
    qsvt_search,
    solve_truncation,
    threshold_repetitions,
)

ZETA = 1.0 / math.sqrt(2.0)


def oracle_1q(phi):
    return np.array([[np.exp(2j * np.pi * phi)]])


VEC1 = np.array([1.0])


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

    def test_negative_eigenvalues_handled_by_shift(self):
        h = np.diag([-0.9, 0.8]).astype(complex)
        rec = eigenvalue_threshold(h, 1.0, 0.5, 0.1, ZETA, 0.1, self.PSI, exact=True)
        assert rec.decision is True  # -0.9 is below the 0.5 cut


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
# bit, queries and p1 value of these records.
PE_REPLAYS = {
    "factor_7_15": (
        lambda: order_finding_demo(7, 15, seed=1),
        "1a5c1aa25dac38a2941ea11d1b526aa3028e55ea0fcb34aaee824333396d0544",
    ),
    "factor_2_21": (
        lambda: order_finding_demo(2, 21, seed=1),
        "f9f9f309c435a8c0dd1818137f8fbba3ac0c5e9fbf2cfba1a86f0207d054a321",
    ),
    "factor_2_35": (
        lambda: order_finding_demo(2, 35, seed=1),
        "2de0d6ea2965e71dd6652e4757422ece90875e2730dc7210a7fe0791247cba01",
    ),
    "qpe_sampled": (
        lambda: phase_estimation_record(
            oracle_1q(0.3), VEC1, 6, pe_epsilon_for(0.1, 6), 0.2, seed=4
        ),
        "f017c90e5bfe987da0ee4be24654dcabe2ef1edc395e77de9148106dac8cb2e4",
    ),
    "qpe_escalation": (
        lambda: phase_estimation_record(
            oracle_1q(0.625 + 1 / 16), VEC1, 3, 0.4, 0.2, seed=2,
            majority_votes=5, escalate_ambiguous=True,
        ),
        "b2721c77bcb83c5964422fe70e0f6b0086b41812ab5853cc6d833aaba496c0c4",
    ),
    "qpe_phase_errors": (
        lambda: phase_estimation_record(
            oracle_1q(0.995), VEC1, 5, pe_epsilon_for(0.1, 5), 0.2, seed=3,
            phase_errors=[0.01, -0.02, 0.005, 0.0, -0.01],
        ),
        "5b94012a2943620354287f7889d28d5c26fd2edd9c265f39a2e892624ca787fc",
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
