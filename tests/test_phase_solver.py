import numpy as np
import pytest

from qsvtsim import (
    CANONICAL,
    ChebyshevPoly,
    DegreeCapExceeded,
    DomainError,
    FixedPointParams,
    NoConvergence,
    Parity,
    ParityError,
    PhaseSequence,
    SolverOptions,
    fixed_point_phases,
    residual,
    response_many,
    solve_phases,
)
from qsvtsim.phase_solver import _swept, _wx_diagonal

# closed-form fixed-point list for d=10, delta=0.5, frozen to 8 decimals and
# cross-checked by the palindrome and response-range properties below
FP_D10_DELTA05 = [
    -1.58023603, -1.55147987, -1.6009483, -1.52812171,
    -1.62884337, -1.49242141, -1.67885248, -1.41255145,
    -1.8386054, -0.87463828, -0.87463828, -1.8386054,
    -1.41255145, -1.67885248, -1.49242141, -1.62884337,
    -1.52812171, -1.6009483, -1.55147987, -1.58023603,
]


class TestFixedPointPhases:
    def test_golden_list(self):
        seq = fixed_point_phases(FixedPointParams(10, 0.5))
        assert len(seq.phases) == 20
        assert np.max(np.abs(seq.as_array() - FP_D10_DELTA05)) < 1e-6

    def test_palindrome(self):
        for d, delta in [(4, 0.3), (10, 0.5), (7, 0.8)]:
            arr = fixed_point_phases(FixedPointParams(d, delta)).as_array()
            assert np.allclose(arr, arr[::-1])
            assert len(arr) == 2 * d

    def test_response_range(self):
        # |response|^2 >= 1 - delta^2 over the swept range [0, 0.92]; the
        # curve starts at 1 and first dips below 0.75 near a = 0.93
        seq = fixed_point_phases(FixedPointParams(10, 0.5))
        grid = np.linspace(0.0, 0.92, 500)
        probs = np.abs(response_many(seq, grid)) ** 2
        assert np.min(probs) >= 0.75 - 1e-9
        beyond = np.abs(response_many(seq, np.linspace(0.94, 1.0, 50))) ** 2
        assert np.min(beyond) < 0.75

    def test_params_validation(self):
        with pytest.raises(DomainError):
            FixedPointParams(0, 0.5)
        with pytest.raises(DomainError):
            FixedPointParams(3, 1.5)
        params = FixedPointParams(10, 0.5)
        assert params.L == 21
        assert 0.0 < params.gamma < 1.0


class TestSolvePhases:
    def test_chebyshev_target(self):
        t5 = ChebyshevPoly([0, 0, 0, 0, 0, 1.0], Parity.ODD)
        seq = solve_phases(t5, SolverOptions(residual_tol=1e-9))
        assert seq.convention == CANONICAL
        assert len(seq.phases) == 6
        assert residual(seq, t5) <= 1e-9

    def test_linear_target(self):
        t1 = ChebyshevPoly([0, 1.0], Parity.ODD)
        seq = solve_phases(t1, SolverOptions(residual_tol=1e-12))
        assert residual(seq, t1) <= 1e-12

    def test_random_even_target(self, rng):
        coeffs = np.zeros(9)
        coeffs[::2] = rng.standard_normal(5)
        target = ChebyshevPoly(coeffs, Parity.EVEN)
        target = target.scaled(0.9 / target.sup_norm())
        seq = solve_phases(target, SolverOptions(residual_tol=1e-8))
        assert residual(seq, target) <= 1e-8

    def test_deterministic_bitwise(self):
        target = ChebyshevPoly([0, 0.3, 0, 0.4], Parity.ODD)
        a = solve_phases(target)
        b = solve_phases(target)
        assert a.phases == b.phases

    def test_rejects_bad_targets(self):
        with pytest.raises(ParityError):
            solve_phases(ChebyshevPoly([0.3, 0.4], Parity.NONE))
        with pytest.raises(DomainError):
            solve_phases(ChebyshevPoly([0, 1.2], Parity.ODD))

    def test_degree_cap_checked_before_solving(self):
        coeffs = np.zeros(602)
        coeffs[1], coeffs[601] = 0.5, 0.01
        with pytest.raises(DegreeCapExceeded, match="degree 601 exceeds the degree cap 512"):
            solve_phases(ChebyshevPoly(coeffs, Parity.ODD))

    def test_boundary_target_is_nudged(self):
        # a target touching |P| = 1 still solves, to within the nudge
        t3 = ChebyshevPoly([0, 0, 0, 1.0], Parity.ODD)
        seq = solve_phases(t3, SolverOptions(residual_tol=1e-6))
        assert residual(seq, t3) <= 1e-6

    def test_no_convergence_reported(self):
        target = ChebyshevPoly([0, 0.5, 0, 0.3], Parity.ODD)
        with pytest.raises(NoConvergence):
            # below machine precision: unattainable by construction
            solve_phases(
                target,
                SolverOptions(residual_tol=1e-17),
            )


class TestResidual:
    def test_all_zero_phases_vs_t_d(self):
        for d in (3, 8):
            target = ChebyshevPoly([0.0] * d + [1.0], Parity.ODD if d % 2 else Parity.EVEN)
            # the ++ response of all-zero phases has Re P = T_d
            seq = PhaseSequence((0.0,) * (d + 1), CANONICAL)
            assert residual(seq, target) <= 1e-12

    def test_perturbation_increases_residual(self):
        target = ChebyshevPoly([0, 0, 0, 0, 0, 0.9], Parity.ODD)
        seq = solve_phases(target, SolverOptions(residual_tol=1e-9))
        base = residual(seq, target)
        bumped = np.array(seq.phases)
        bumped[2] += 0.1
        assert residual(PhaseSequence(tuple(bumped), CANONICAL), target) > base + 1e-3


def test_gradient_matches_finite_differences(rng):
    for _ in range(5):
        d = 6
        phases = rng.uniform(-np.pi, np.pi, d + 1)
        nodes = _wx_diagonal(np.cos((2 * np.arange(d + 1) + 1) * np.pi / (2 * (d + 1))))
        jac = _swept(phases, nodes)[1]()
        step = 1e-6
        fd = np.zeros_like(jac)
        for k in range(d + 1):
            up, down = phases.copy(), phases.copy()
            up[k] += step
            down[k] -= step
            gu, _ = _swept(up, nodes)
            gd, _ = _swept(down, nodes)
            fd[:, k] = (gu - gd) / (2 * step)
        assert np.max(np.abs(jac - fd)) / np.max(np.abs(jac)) < 1e-5


def test_family_round_trips(family_solutions):
    # every solver-backed family at its standard arguments
    cases = [
        ("poly_sign", dict(d=19, k=10.0)),
        ("invert", dict(kappa=3.0, eps=0.3)),
        ("hamsim", dict(t=5.0, eps=0.1, part="cos")),
        ("hamsim", dict(t=5.0, eps=0.1, part="sin")),
        ("poly_thresh", dict(d=18, k=10.0)),
        ("poly_phase", dict(d=18, k=10.0)),
        ("efilter", dict(d=30, dlam=0.3)),
        ("gibbs", dict(d=20, beta=3.5)),
        ("relu", dict(d=20, delta=0.6, steepness=15.0)),
    ]
    for name, args in cases:
        target, seq, resid = family_solutions(name, **args)
        assert resid <= 1e-6, f"{name} residual {resid:.2e}"
        assert len(seq.phases) == target.degree + 1


def _scanned_residual(seq, target, points):
    """max |Re(response) - target| on points values x = cos(theta), theta
    evenly spaced over [0, pi]."""
    x = np.cos(np.linspace(0.0, np.pi, points))
    return float(np.max(np.abs(response_many(seq, x).real - target(x))))


def _check_exact_residual(seq, target, points):
    # the exact residual is at least the old 1001-point value, and within
    # the scan's resolution of a dense scan: by Bernstein's inequality the
    # sup of a degree-D error is at most (D pi / 2 (points - 1))^2 / 2 of
    # itself above the nearest scanned value
    resid = residual(seq, target)
    assert resid >= _scanned_residual(seq, target, 1001) - 1e-14
    grid = np.linspace(-1.0, 1.0, 1001)
    assert resid >= np.max(np.abs(response_many(seq, grid).real - target(grid))) - 1e-14
    scan = _scanned_residual(seq, target, points)
    degree = max(seq.degree, target.degree)
    assert scan - 1e-14 <= resid <= scan * (1 + 0.5 * (degree * np.pi / (2 * (points - 1))) ** 2) + 1e-14
    return resid


@pytest.mark.parametrize("name, args", [
    ("poly_sign", dict(d=19, k=10.0)),
    ("invert", dict(kappa=3.0, eps=0.3)),
    ("hamsim", dict(t=5.0, eps=0.1, part="cos")),
    ("hamsim", dict(t=5.0, eps=0.1, part="sin")),
    ("poly_thresh", dict(d=18, k=10.0)),
    ("poly_phase", dict(d=18, k=10.0)),
    ("efilter", dict(d=30, dlam=0.3)),
    ("gibbs", dict(d=20, beta=3.5)),
    ("relu", dict(d=20, delta=0.6, steepness=15.0)),
], ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v.values())))
def test_the_residual_of_every_family_is_exact(family_solutions, name, args):
    target, seq, resid = family_solutions(name, **args)
    assert _check_exact_residual(seq, target, 100_001) == resid


@pytest.mark.parametrize("degree, points", [
    (1, 1_000_001), (2, 1_000_001), (7, 100_001), (8, 100_001), (39, 100_001), (40, 100_001),
    (77, 100_001), (153, 100_001),
])
@pytest.mark.parametrize("parity", [Parity.NONE, Parity.EVEN, Parity.ODD])
def test_the_residual_of_a_random_phase_list_is_exact(degree, points, parity):
    # against a target of either parity, or of none, of half the list's degree
    rng = np.random.default_rng(100 * degree + len(parity.value))
    seq = PhaseSequence(tuple(rng.uniform(-np.pi, np.pi, degree + 1)), CANONICAL)
    coeffs = 0.5 * rng.standard_normal(degree // 2 + 2)
    if parity is not Parity.NONE:
        coeffs[(0 if parity is Parity.ODD else 1)::2] = 0.0
    _check_exact_residual(seq, ChebyshevPoly(coeffs, parity), points)
