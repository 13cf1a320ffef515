import math

import numpy as np
import pytest
from scipy.special import erf

from qsvtsim import (
    ChebyshevPoly,
    DegreeCapExceeded,
    DomainError,
    Parity,
    ParityError,
    eigenstate_filter_poly,
    eigenvalue_threshold_poly,
    gibbs_poly,
    inverse_poly,
    jacobi_anger_cos,
    jacobi_anger_sin,
    matrix_inversion_poly,
    phase_estimation_poly,
    poly_from_json,
    poly_to_json,
    rect_poly,
    relu_poly,
    sign_poly,
    solve_truncation,
)
from qsvtsim.poly_approx import DEFAULT_DEGREE_CAP, cert_grid, inverse_poly_params


def test_chebyshev_poly_parity_enforced():
    with pytest.raises(ParityError):
        ChebyshevPoly([0.0, 1.0, 0.5], Parity.ODD)
    p = ChebyshevPoly([0.0, 1.0, 1e-16], Parity.ODD)
    assert p.degree == 1
    assert p.coeffs[2] == 0.0


def test_poly_json_roundtrip():
    p = ChebyshevPoly([0.0, 0.25, 0.0, -0.5], Parity.ODD)
    q = poly_from_json(poly_to_json(p))
    assert q.parity is Parity.ODD
    assert np.allclose(q.coeffs, p.coeffs)
    with pytest.raises(DomainError, match="'parity'"):
        poly_from_json('{"coeffs": [0.0, 1.0]}')
    with pytest.raises(DomainError, match="'coeffs'"):
        poly_from_json('{"coeffs": "x", "parity": "odd"}')


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_coefficients_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        ChebyshevPoly([0.0, bad], Parity.ODD)
    with pytest.raises(DomainError, match="finite"):
        poly_from_json('{"coeffs": [0, NaN], "parity": "odd"}')


class TestSignPoly:
    def test_odd_and_zero_at_origin(self):
        p = sign_poly(0.1, 0.4)
        assert p.parity is Parity.ODD
        assert abs(p(0.0)) < 1e-12

    def test_certification_grid_values(self):
        p = sign_poly(0.1, 0.4)
        pts = np.array([0.3, 0.5, 0.9, -0.3, -0.5, -0.9])
        assert np.max(np.abs(p(pts) - np.sign(pts))) <= 0.1
        assert p.sup_norm() <= 1.0 + 1e-12

    def test_degree_grows_as_one_over_delta(self):
        degrees = [sign_poly(0.1, d).degree for d in (0.4, 0.2, 0.1)]
        assert degrees[0] < degrees[1] < degrees[2]
        # halving the window roughly doubles the degree
        assert degrees[1] <= 2 * degrees[0] + 8
        assert degrees[2] <= 2 * degrees[1] + 8

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            sign_poly(0.6, 0.4)
        with pytest.raises(DomainError):
            sign_poly(0.1, 0.0)


class TestThresholdPoly:
    def test_window_behavior(self):
        p = eigenvalue_threshold_poly(0.2, 0.2, 0.5)
        assert p(0.2) >= 0.8
        assert p(0.8) <= -0.8
        assert p.sup_norm() <= 1.0 + 1e-12

    def test_even_symmetry_and_window_value(self):
        p = eigenvalue_threshold_poly(0.2, 0.2, 0.5)
        grid = np.linspace(0, 1, 101)
        assert np.max(np.abs(p(grid) - p(-grid))) < 1e-12
        assert abs(p(0.5)) <= 1.0 + 1e-12  # boundedness only inside the window

    def test_window_overflow_rejected(self):
        with pytest.raises(DomainError):
            eigenvalue_threshold_poly(0.2, 0.5, 0.9)


class TestPhaseEstimationPoly:
    def test_step_values(self):
        eps = 0.169
        p = phase_estimation_poly(eps, 0.2)
        assert p(0.0) >= 1 - eps
        assert p(1.0) <= -1 + eps
        grid = np.linspace(0, 1, 101)
        assert np.max(np.abs(p(grid) - p(-grid))) < 1e-12


class TestTruncation:
    def test_residual_and_bracket(self):
        spec = solve_truncation(5.0, 0.1)
        assert abs((spec.t_arg / spec.r_value) ** spec.r_value - spec.eps_arg) < 1e-10
        assert spec.r_value > spec.t_arg

    def test_monotone_in_t(self):
        assert solve_truncation(2.0, 0.1).r_value < solve_truncation(8.0, 0.1).r_value

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_truncation(5.0, 0.5)
        with pytest.raises(DomainError):
            solve_truncation(-1.0, 0.1)


class TestJacobiAnger:
    def test_cos_at_zero_prescale(self):
        eps = 0.1
        p = jacobi_anger_cos(5.0, eps)
        assert abs((1 + eps) * p(0.0) - 1.0) <= eps

    def test_sin_odd(self):
        p = jacobi_anger_sin(5.0, 0.1)
        assert p.parity is Parity.ODD
        assert abs(p(0.0)) < 1e-14

    def test_grid_error_budget(self):
        eps = 0.1
        grid = np.linspace(-1, 1, 1001)
        c = jacobi_anger_cos(5.0, eps)
        s = jacobi_anger_sin(5.0, eps)
        assert np.max(np.abs(c(grid) - np.cos(5 * grid) / (1 + eps))) <= 2 * eps
        assert np.max(np.abs(c(grid) - np.cos(5 * grid))) <= 2 * eps
        assert np.max(np.abs(s(grid) - np.sin(5 * grid))) <= 2 * eps
        assert c.degree % 2 == 0 and s.degree % 2 == 1


class TestInversePoly:
    def test_b_formula(self):
        b, _ = inverse_poly_params(0.1, 2.0)
        assert b == 12  # ceil(4 ln 20)

    def test_odd_and_pointwise(self):
        p = inverse_poly(0.1, 2.0)
        assert p.parity is Parity.ODD
        assert abs(p(0.75) - 4.0 / 3.0) <= 0.2
        grid = np.linspace(0.1, 1, 51)
        assert np.max(np.abs(p(grid) + p(-grid))) < 1e-12

    def test_matches_gb_identity_for_small_b(self):
        # the expansion reproduces (1 - (1 - x^2)^b) / x
        for eps, kappa in [(0.45, 1.5), (0.4, 1.0), (0.3, 2.0)]:
            b, _ = inverse_poly_params(eps, kappa)
            assert b <= 30
            p = inverse_poly(eps, kappa)
            x = np.linspace(0.1, 1.0, 301)
            ref = (1 - (1 - x**2) ** b) / x
            assert np.max(np.abs(p(x) - ref)) < 1e-8


class TestRectPoly:
    def test_bounds(self):
        eps, kappa = 0.05, 2.0
        p = rect_poly(eps, kappa)
        assert p.parity is Parity.EVEN
        assert 0.0 <= p(0.0) <= eps
        assert p(1.0) >= 1 - eps
        grid = cert_grid()
        vals = p(grid)
        assert np.max(np.abs(vals)) <= 1 + 1e-12
        outer = np.abs(grid) >= 1 / kappa
        assert np.min(vals[outer]) >= 1 - eps
        inner = np.abs(grid) <= 1 / (2 * kappa)
        assert np.min(vals[inner]) >= -1e-12 and np.max(vals[inner]) <= eps


class TestMatrixInversionPoly:
    def test_scaled_inverse_accuracy(self):
        eps, kappa = 0.1, 2.0
        p = matrix_inversion_poly(eps, kappa)
        assert p.parity is Parity.ODD
        assert 2 * kappa * p(1.0) == pytest.approx(1.0, abs=eps)
        xs = np.linspace(1 / kappa, 1.0, 300)
        assert np.max(np.abs(p(xs) - 1 / (2 * kappa * xs))) <= eps / (2 * kappa)

    def test_bounded_inside_kernel_window(self):
        p = matrix_inversion_poly(0.1, 2.0)
        xs = np.linspace(-0.25, 0.25, 101)
        assert np.max(np.abs(p(xs))) <= 1.0
        assert p.sup_norm() <= 1.0 + 1e-12

    def test_degree_structure(self):
        # composite degree stays within the sum of its parts
        eps, kappa = 0.1, 2.0
        p_inv = inverse_poly(eps / 4, 2 * kappa)
        p = matrix_inversion_poly(eps, kappa)
        assert p.degree % 2 == 1
        assert p.degree <= p_inv.degree + 512

    def test_requires_small_epsilon_over_kappa(self):
        with pytest.raises(DomainError):
            matrix_inversion_poly(0.6, 1.0)


class TestSmoothInversionTarget:
    @pytest.mark.parametrize("eps, kappa, degree", [(0.05, 3.0, 23), (0.01, 20.0, 283)])
    def test_certifies_under_the_cap(self, eps, kappa, degree):
        p = matrix_inversion_poly(eps, kappa)
        assert p.degree == degree <= DEFAULT_DEGREE_CAP
        x = np.linspace(1 / kappa, 1.0, 200_001)
        assert np.max(np.abs(p(x) - 1 / (2 * kappa * x))) <= eps / (2 * kappa)
        assert np.max(np.abs(p(np.linspace(-1.0, 1.0, 200_001)))) <= 1.0

    def test_ratio_bound_is_a_domain_error(self):
        # kappa / eps = 10^4 puts the smooth target's sup at 1.0042
        with pytest.raises(DomainError, match="kappa / epsilon = 10000 exceeds 9214.03"):
            matrix_inversion_poly(1e-3, 10.0)

    def test_degree_cap_is_named(self):
        with pytest.raises(DegreeCapExceeded, match="degree cap 101"):
            matrix_inversion_poly(0.01, 20.0, degree_cap=101)


class TestEigenstateFilter:
    def test_unit_at_origin(self):
        f = eigenstate_filter_poly(15, 0.3)
        assert f(0.0) == pytest.approx(1.0, abs=1e-12)
        assert f.degree == 30
        assert f.parity is Parity.EVEN

    def test_bounded_and_decaying(self):
        f15 = eigenstate_filter_poly(15, 0.3)
        assert f15.sup_norm() <= 1.0 + 1e-9
        f5 = eigenstate_filter_poly(5, 0.3)
        assert abs(f15(0.3)) < 1.0
        assert abs(f15(0.3)) < abs(f5(0.3))

    def test_domain(self):
        with pytest.raises(DomainError):
            eigenstate_filter_poly(0, 0.3)
        with pytest.raises(DomainError):
            eigenstate_filter_poly(5, 1.5)


def test_gibbs_fit():
    fit = gibbs_poly(3.5, 20)
    assert fit.poly.parity is Parity.EVEN
    # the target maximum exp(0) = 1 is matched within the reported residual
    assert abs(fit.poly(0.0) - 1.0) <= fit.residual + 1e-12
    assert fit.poly.sup_norm() <= 1.0 + 1e-12


def test_relu_fit():
    fit = relu_poly(0.6, 15.0, 20)
    target0 = math.log(1 + math.exp(15 * (0 - 0.6))) / 15
    assert abs(fit.poly(0.0) - target0) <= fit.residual + 1e-4
    grid = np.linspace(0, 1, 101)
    assert np.max(np.abs(fit.poly(grid) - fit.poly(-grid))) < 1e-12
    with pytest.raises(DomainError):
        relu_poly(0.6, 15.0, 7)


def test_composite_certification_is_rechecked():
    # components stay certified after the composite product and trim
    eps, kappa = 0.05, 2.5
    p = matrix_inversion_poly(eps, kappa)
    grid = cert_grid()
    assert np.max(np.abs(p(grid))) <= 1 + 1e-12
    outside = np.abs(grid) > 1 / kappa
    err = np.abs(p(grid[outside]) - 1 / (2 * kappa * grid[outside]))
    assert np.max(err) <= eps / (2 * kappa)


@pytest.mark.parametrize(
    "epsilon, delta, degree", [(0.01, 0.1, 153), (0.01, 0.2, 77), (0.1, 0.4, 19)]
)
def test_sign_bounded_between_grid_points(epsilon, delta, degree):
    # the unit rescale takes the sup at the critical points as well as on
    # the grid, so no overshoot hides between grid points
    p = sign_poly(epsilon, delta)
    assert p.degree == degree
    assert np.max(np.abs(p(np.linspace(-1.0, 1.0, 2_000_001)))) <= 1.0
