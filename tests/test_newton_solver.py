"""Newton phase synthesis: targets the restart-based optimizer gave up on,
the paper-scale degrees, bounded typed failure and the inert options."""

import time

import numpy as np
import pytest

from qsvtsim import (
    ChebyshevPoly,
    DomainError,
    NoConvergence,
    Parity,
    PhaseSequence,
    SolverOptions,
    eigenvalue_threshold_poly,
    extract_block,
    hamiltonian_simulation,
    phase_estimation_poly,
    residual,
    sign_poly,
    solve_phases,
)
from qsvtsim import phase_solver
from qsvtsim.phase_solver import _newton, _nudged, _swept, _symmetric_sweep, _wx_diagonal


def _interior_target(seed: int) -> ChebyshevPoly:
    # odd degree-101 series with c_k = N(0, 1) exp(-k / 25), scaled to sup 0.9
    rng = np.random.default_rng(seed)
    k = np.arange(102)
    coeffs = np.zeros(102)
    coeffs[1::2] = rng.standard_normal(51) * np.exp(-k[1::2] / 25)
    target = ChebyshevPoly(coeffs, Parity.ODD)
    return target.scaled(0.9 / target.sup_norm())


def _grid_unit_target(seed: int) -> ChebyshevPoly:
    # odd degree-235 series with c_k = N(0, 1) exp(-k / 20), scaled to a
    # sup of 1 on a 4096-point grid; between grid points it is larger
    rng = np.random.default_rng(seed)
    k = np.arange(236)
    coeffs = np.zeros(236)
    coeffs[1::2] = rng.standard_normal(118) * np.exp(-k[1::2] / 20)
    target = ChebyshevPoly(coeffs, Parity.ODD)
    return target.scaled(1.0 / np.max(np.abs(target(np.linspace(-1.0, 1.0, 4096)))))


@pytest.mark.parametrize("seed", [0, 1])
def test_true_sup_beyond_tolerance_is_a_domain_error(seed):
    # true sups 1 + 1.1e-5 and 1 + 8.0e-6: Newton used to end in NoConvergence
    target = _grid_unit_target(seed)
    assert np.max(np.abs(target(np.linspace(-1.0, 1.0, 4096)))) <= 1.0 + 1e-9
    with pytest.raises(DomainError, match=r"target sup norm 1\.0000\d+ exceeds 1 by .*, more "
                                          r"than residual_tol 1\.0e-06$"):
        solve_phases(target, SolverOptions(residual_tol=1e-6))


@pytest.mark.parametrize("seed", [2, 3])
def test_true_sup_within_tolerance_solves(seed):
    # true sups 1 + 2.1e-7 and 1 + 2.0e-7, inside the tolerance
    target = _grid_unit_target(seed)
    seq = solve_phases(target, SolverOptions(residual_tol=1e-6))
    assert residual(seq, target) <= 1e-6


@pytest.mark.parametrize("seed, tol", [(0, 1.5e-5), (1, 1.2e-5)])
def test_true_sup_above_half_tolerance_solves(seed, tol):
    # true sup - 1 (1.1e-5, 8.0e-6) is above tol / 2, so the nudge must keep
    # to the headroom 1 + tol - sup rather than take tol / 2
    target = _grid_unit_target(seed)
    seq = solve_phases(target, SolverOptions(residual_tol=tol))
    assert residual(seq, target) <= tol


@pytest.mark.parametrize("make, degree", [
    (lambda: eigenvalue_threshold_poly(1e-6, 0.2, 0.5), 312),
    (lambda: phase_estimation_poly(1e-4, 0.1), 342),
], ids=["threshold", "phase_estimation"])
def test_unit_bound_steps_under_a_second(make, degree):
    # plateaus at +-1 make the Newton root singular; solved raw, these took
    # 1098 and 210 steps (10 s and 1.6 s)
    target = make()
    assert target.degree == degree
    start = time.perf_counter()
    seq = solve_phases(target)
    assert time.perf_counter() - start < 1.0
    assert residual(seq, target) <= 1e-6


def test_jacobians_only_for_the_steps_taken(monkeypatch):
    # the d-342 target rejects about two trial steps for each one it takes:
    # every trial is one sweep, and the Jacobian is computed once per step
    # taken, from the rows of the point that step starts from
    calls = []
    jacobian = phase_solver._jacobian

    def counted(*args):
        calls.append(len(args[0]))
        return jacobian(*args)

    monkeypatch.setattr(phase_solver, "_jacobian", counted)
    target = _nudged(phase_estimation_poly(1e-4, 0.1), 1e-6)
    _, steps = _newton(target)
    assert steps == 57
    assert calls == [343] * steps


def test_threshold_newton_steps_within_budget():
    # 24 steps on one BLAS thread, far inside the budget of 100
    target = eigenvalue_threshold_poly(1e-6, 0.2, 0.5)
    phases, steps = _newton(_nudged(target, 1e-6))
    assert steps <= 40
    assert residual(PhaseSequence(tuple(phases)), target) <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_interior_degree_101(seed):
    target = _interior_target(seed)
    assert target.degree == 101
    seq = solve_phases(target, SolverOptions(residual_tol=1e-4))
    assert residual(seq, target) <= 1e-4


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
def test_hamiltonian_simulation_at_t2(epsilon):
    # needs the degree-6 cosine jacobi_anger_cos(2.0, epsilon / 4)
    h = np.diag([0.3, -0.6]).astype(complex)
    enc = hamiltonian_simulation(h, 1.0, 2.0, epsilon)
    approx = enc.alpha * extract_block(enc)
    exact = np.diag(np.exp(-2j * np.array([0.3, -0.6])))
    assert np.max(np.abs(approx - exact)) <= epsilon


def test_sign_degree_153_to_1e6_under_a_second():
    target = sign_poly(0.01, 0.1)
    assert target.degree == 153
    start = time.perf_counter()
    seq = solve_phases(target, SolverOptions(residual_tol=1e-6))
    assert time.perf_counter() - start < 1.0
    assert residual(seq, target) <= 1e-6


def test_sign_degree_505():
    target = sign_poly(0.01, 0.03)
    assert target.degree == 505
    seq = solve_phases(target, SolverOptions(residual_tol=1e-4))
    assert residual(seq, target) <= 1e-4


def test_unattainable_tolerance_fails_fast():
    target = ChebyshevPoly([0, 0.5, 0, 0.3], Parity.ODD)
    start = time.perf_counter()
    with pytest.raises(NoConvergence) as info:
        solve_phases(target, SolverOptions(residual_tol=1e-17))
    assert time.perf_counter() - start < 2.0
    message = str(info.value)
    assert "best residual" in message and "iterations" in message
    assert "restart" not in message


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_a_residual_tolerance_must_be_positive_and_finite(tol):
    # a NaN passed the old "<= 0" check, and the solve failed later naming no bound
    with pytest.raises(DomainError, match="residual_tol must be positive and finite"):
        SolverOptions(residual_tol=tol)


@pytest.mark.parametrize("degree", [0, 1, 2, 6, 7, 41])
def test_symmetric_jacobian_matches_finite_differences(degree, rng):
    # the palindromic fast path of _jacobian and the mirror sum
    half = (degree + 2) // 2
    sym = rng.uniform(-np.pi, np.pi, half)
    nodes = _wx_diagonal(np.cos((2 * np.arange(1, half + 1) - 1) * np.pi / (4 * half)))
    _, jacobian = _symmetric_sweep(sym, degree, nodes)
    jac = jacobian()
    assert jac.shape == (half, half)
    step = 1e-6
    fd = np.zeros_like(jac)
    for k in range(half):
        up, down = sym.copy(), sym.copy()
        up[k] += step
        down[k] -= step
        fd[:, k] = (_symmetric_sweep(up, degree, nodes)[0]
                    - _symmetric_sweep(down, degree, nodes)[0]) / (2 * step)
    assert np.max(np.abs(jac - fd)) / np.max(np.abs(jac)) < 1e-5
    # the palindromic shortcut agrees with the two-pass general path
    full = np.concatenate([sym, sym[: degree + 1 - half][::-1]])
    shortcut = _swept(full, nodes)[1]()
    nudged = full.copy()
    nudged[0] = np.nextafter(full[0], np.inf)  # one ulp: not palindromic bitwise
    general = _swept(nudged, nodes)[1]()
    assert np.allclose(shortcut, general, atol=1e-13)
