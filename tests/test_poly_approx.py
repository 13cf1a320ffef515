import hashlib
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from scipy.optimize import brentq
from scipy.special import erf, gammaln, jv

from qsvtsim import (
    ChebyshevPoly,
    ConvergenceError,
    DegreeCapExceeded,
    DomainError,
    Parity,
    ParityError,
    eigenstate_filter_poly,
    eigenvalue_threshold_poly,
    families,
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
    sign_poly_from_steepness,
    solve_truncation,
)
from qsvtsim import poly_approx, solve_phases
from qsvtsim.poly_approx import (
    CERT_GRID_SIZE,
    DEGREE_CAP,
    _chebval,
    _erf,
    _exact_sup,
    _jacobi_anger_coeffs,
    cert_grid,
    interpolate,
    inverse_poly_params,
)


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


def _random_series(degree: int, kind: str, seed: int) -> np.ndarray:
    """Unit-normal Chebyshev coefficients, with the odd or even ones zeroed."""
    c = np.random.default_rng(seed).standard_normal(degree + 1)
    if kind == "even":
        c[1::2] = 0.0
    elif kind == "odd":
        c[0::2] = 0.0
    return c


@pytest.mark.parametrize("kind", ["even", "odd", "none"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 41, 153, 512])
def test_evaluator_matches_chebval(kind, degree):
    c = _random_series(degree, kind, 300 + degree)
    rng = np.random.default_rng(400 + degree)
    x = np.concatenate([[-1.0, 0.0, 1.0], cert_grid(), rng.uniform(-1.0, 1.0, 1000)])
    bound = 1e-13 * np.sum(np.abs(c))
    assert np.max(np.abs(_chebval(x, c) - cheb.chebval(x, c))) <= bound
    poly = ChebyshevPoly(c, Parity.NONE if kind == "none" else Parity(kind))
    assert np.max(np.abs(poly(x) - cheb.chebval(x, c))) <= bound
    for point in (-1.0, 0.0, 1.0, 0.3):
        value = poly(point)
        assert np.ndim(value) == 0 and abs(value - cheb.chebval(point, c)) <= bound
    grid = x[1:].reshape(2, -1)
    assert poly(grid).shape == grid.shape


@pytest.mark.parametrize("kind", ["even", "odd"])
def test_batched_rows_match_single_rows_bit_for_bit(kind):
    # the trim screens its probes as zero-padded rows of one call
    c = _random_series(154, kind, 600)
    x = np.concatenate([[-1.0, 0.0, 1.0], cert_grid()[::16], np.linspace(-0.71, 0.71, 9)])
    lengths = [d + 1 for d in (0, 1, 2, 3, 40, 41, 100, 101, 153, 154) if d % 2 == (kind == "odd")]
    rows = np.zeros((len(lengths), len(c)))
    for row, n in zip(rows, lengths):
        row[:n] = c[:n]
    batched = _chebval(x, rows)
    assert batched.shape == (len(lengths), len(x))
    for got, n in zip(batched, lengths):
        assert got.tobytes() == _chebval(x, c[:n]).tobytes()


@pytest.mark.parametrize("kind", ["even", "odd"])
@pytest.mark.parametrize("points", [
    0.3, -0.9, [0.1, -0.2, 2**-0.5 - 1e-16], [0.8, -1.0, -(2**-0.5)], [], [[0.1], [0.9]]])
def test_a_value_is_the_same_beside_points_of_both_regions(kind, points):
    # a scalar, a one-sided, an empty and a 2-d input keep their shape, and
    # each value is bit for bit the one it gets beside a point of either
    # region (|x| < 1/sqrt(2) and the rest)
    c = _random_series(77, kind, 700)
    got = _chebval(points, c)
    assert np.shape(got) == np.shape(points)
    both = _chebval(np.append(points, [0.0, 1.0]), c)[:-2]
    assert np.ravel(got).tobytes() == both.tobytes()


def test_a_series_keeps_its_parity_bit_for_bit():
    # _exact_sup searches one half of [-1, 1] for a p of either parity, as
    # |p(-x)| = |p(x)| bit for bit
    s = 2**-0.5
    rng = np.random.default_rng(801)
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0, s, np.nextafter(s, 0.0), np.nextafter(s, 1.0)],
                        rng.uniform(-1.0, 1.0, 40)])
    x = np.concatenate([x, -x])
    for degree in range(1, 513):
        c = _random_series(degree, "odd" if degree % 2 else "even", 900 + degree)
        sign = -1.0 if degree % 2 else 1.0
        assert _chebval(-x, c).tobytes() == (sign * _chebval(x, c)).tobytes(), degree


def _reference_chebval(x: float, coeffs: np.ndarray) -> float:
    """sum_k coeffs[k] T_k(x) by the three-term recurrence in 60 decimal
    digits, from the exact decimal values of x and the coefficients."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        total, prev, cur = Decimal(coeffs[0]), Decimal(1), x
        for ck in coeffs[1:]:
            total += Decimal(ck) * cur
            prev, cur = cur, 2 * x * cur - prev
        return float(total)


@pytest.mark.parametrize("kind", ["even", "odd"])
@pytest.mark.parametrize("degree", [41, 153, 512])
def test_evaluator_is_accurate_near_the_ends_and_the_middle(kind, degree):
    # near x = 0 and x = +-1, y = 2x^2 - 1 is near -1 or 1, where T_j(y)
    # changes up to j^2 times faster than y: the plain recurrence at a
    # rounded y loses 1.3e-14 to 6.8e-14 of sum |c_k| on these points at
    # degrees 153 and 512 (numpy's chebval in x loses as much), and the
    # Reinsch form at most 8.3e-16
    c = _random_series(degree, kind, 500 + degree)
    points = [-1.0, 0.0, 1.0, 1e-9, -3e-5, 2e-3, 0.2, -0.5, 2**-0.5, -(2**-0.5),
              1.0 - 2.0**-40, -(1.0 - 1e-8), 1.0 - 3e-4, -0.99]
    reference = np.array([_reference_chebval(p, c) for p in points])
    err = np.max(np.abs(_chebval(np.array(points), c) - reference))
    assert err <= 1e-14 * np.sum(np.abs(c))


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

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_a_domain_error(self, t):
        with pytest.raises(DomainError, match="positive and finite"):
            solve_truncation(t, 1e-3)

    @pytest.mark.parametrize(
        "t", [1e-3, 0.1, 1.0, 10.0, 100.0, 376.0, 1e3, 1e4, 3e4, 1e5, 3e5, 1e6]
    )
    def test_root_accepted_at_every_time(self, t):
        # the root check must hold at large t, where (t'/r)^r in linear
        # space loses about r ulps
        for eps in (0.3, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10):
            spec = solve_truncation(t, eps)
            r, log_eps = spec.r_value, math.log(spec.eps_arg)
            assert r > spec.t_arg and spec.k_prime == math.floor(0.5 * r)
            assert abs(r * math.log(spec.t_arg / r) - log_eps) <= 1e-8 * abs(log_eps)

    def test_large_time_reports_the_degree_cap(self):
        assert solve_truncation(1e6, 1e-3).k_prime > DEGREE_CAP
        with pytest.raises(DegreeCapExceeded, match="degree cap 512"):
            jacobi_anger_cos(1e6, 1e-3)

    @pytest.mark.parametrize("t", [sys.float_info.max / (0.5 * math.e), 1.7e308],
                             ids=["root_overflows", "t_arg_overflows"])
    def test_overflowing_time_is_a_convergence_error(self, t):
        # the only inputs found to reach the root check's raise: t' = (e/2) t
        # at the float maximum leaves no finite root, and past it t' is inf
        with pytest.raises(ConvergenceError, match="truncation root rejected"):
            solve_truncation(t, 0.1)


class TestJacobiAnger:
    def test_time_zero_is_exact(self):
        assert jacobi_anger_cos(0.0, 0.1).coeffs.tolist() == [1.0 / 1.1]
        assert jacobi_anger_sin(0.0, 0.1).coeffs.tolist() == [0.0, 0.0]

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

    @pytest.mark.parametrize("eps, kappa, degree", [(0.01, 10.0, 276), (0.1, 20.0, 204),
                                                    (0.05, 30.0, 458)])
    def test_certifies_at_large_kappa(self, eps, kappa, degree):
        # the window's transition fills the whole gap (1/(2 kappa), 1/kappa),
        # which keeps these under the degree cap
        p = rect_poly(eps, kappa)
        assert p.parity is Parity.EVEN and p.degree == degree
        grid = cert_grid()
        vals = p(grid)
        assert np.max(np.abs(vals)) <= 1 + 1e-12
        outer = vals[np.abs(grid) >= 1 / kappa]
        assert 1 - eps <= np.min(outer) and np.max(outer) <= 1 + 1e-12
        inner = vals[np.abs(grid) <= 1 / (2 * kappa)]
        assert -1e-12 <= np.min(inner) and np.max(inner) <= eps


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
        assert p.degree == degree <= DEGREE_CAP
        x = np.linspace(1 / kappa, 1.0, 200_001)
        assert np.max(np.abs(p(x) - 1 / (2 * kappa * x))) <= eps / (2 * kappa)
        assert np.max(np.abs(p(np.linspace(-1.0, 1.0, 200_001)))) <= 1.0

    def test_infinite_kappa_is_a_domain_error_naming_kappa(self):
        # s / (2 kappa) was inf / inf, and the message named a nan sup
        with pytest.raises(DomainError, match="^kappa must be finite, got inf$"):
            matrix_inversion_poly(0.05, math.inf)

    def test_ratio_bound_is_a_domain_error(self):
        # kappa / eps = 10^4 puts the smooth target's sup at 1.0042
        with pytest.raises(DomainError, match="kappa / epsilon = 10000 exceeds 9214.03"):
            matrix_inversion_poly(1e-3, 10.0)

    def test_degree_cap_is_named(self):
        # kappa = 33 is the last to certify under the cap at eps = 0.01
        with pytest.raises(DegreeCapExceeded, match="degree cap 512"):
            matrix_inversion_poly(0.01, 40.0)


@pytest.mark.parametrize("make, degree", [
    (lambda: jacobi_anger_cos(1000.0, 1e-3), 1364),
    (lambda: jacobi_anger_sin(1000.0, 1e-3), 1365),
    (lambda: families.family_target("poly_sign", {"d": 1501}), 1501),
    (lambda: families.family_target("efilter", {"d": 1000}), 1000),
    (lambda: gibbs_poly(1.0, 600), 600),
    (lambda: inverse_poly_params(0.01, 1e4), 386547),
], ids=["jacobi_anger_cos", "jacobi_anger_sin", "poly_sign", "efilter", "gibbs", "inverse"])
def test_degree_cap_checked_before_work(make, degree):
    with pytest.raises(DegreeCapExceeded, match=f"degree {degree} exceeds the degree cap 512"):
        make()


def test_a_degree_past_15_digits_is_stated_by_its_magnitude():
    # the degree at kappa = 1e150 has 153 digits
    with pytest.raises(DegreeCapExceeded) as exc:
        inverse_poly_params(0.1, 1e150)
    assert str(exc.value) == "degree 9.87e+152 exceeds the degree cap 512"


@pytest.mark.parametrize("family, degree, message", [
    ("poly_sign", 18, "sign family degree must be odd"),
    ("poly_thresh", 17, "threshold family degree must be even"),
    ("poly_phase", 17, "phase family degree must be even"),
])
def test_fixed_degree_family_names_its_parity(family, degree, message):
    with pytest.raises(DomainError, match=message):
        families.family_target(family, {"d": degree})


# (degree, sha256 of the coefficient bytes) of certified, Jacobi-Anger,
# fixed-degree, least-squares and closed-form targets.  The shared builders
# (grow-and-certify, the unit rescale, the Jacobi-Anger, fixed-degree and
# even-fit builders) must keep every bit of these; a change to their
# floating-point order re-pins them after checking that the coefficients
# moved only in the last bits.
COEFF_DIGESTS = {
    "sign_0.1_0.4": (lambda: sign_poly(0.1, 0.4), 19,
                     "6511fdedb47467377e496b38a5dc3dfcb70a2b24f72c81ef5386258e67d3eb13"),
    "sign_0.01_0.1": (lambda: sign_poly(0.01, 0.1), 153,
                      "406067767fac4e0090bfa148894e1a34d25250b51e44115e3bd61d9c0077e926"),
    "pe_0.1_0.2": (lambda: phase_estimation_poly(0.1, 0.2), 30,
                   "2d44f62e548f05bf6122da094e15241757e9580b238e20410a68591c8d7ed76a"),
    "thresh_0.05_0.2_0.5": (lambda: eigenvalue_threshold_poly(0.05, 0.2, 0.5), 48,
                            "4895f11fe7ca0a92d4295e71f41efdb53b27a337a4ad55c636a9a6744818eb92"),
    "thresh_0.01_0.1_0.3": (lambda: eigenvalue_threshold_poly(0.01, 0.1, 0.3), 170,
                            "fab7af129a9e5607f9fbcb2fc8ab2f36ad0b2f51fc29eecc55e5ca5c3a472de6"),
    "inv_0.05_3": (lambda: matrix_inversion_poly(0.05, 3.0), 23,
                   "6a823977a30ce615e2c3bc9a6eeae6fbce36f0ef0157e1561ff0f61d7ce2db0c"),
    "jacos_15_1e-3": (lambda: jacobi_anger_cos(15.0, 1e-3), 26,
                      "98925211cc503efeb23e5012c5119f510706b2766351e44d3a3bd8559f7c9793"),
    "jasin_15_1e-3": (lambda: jacobi_anger_sin(15.0, 1e-3), 27,
                      "795444319812f1e420e6df07f96a3f865b7a237f28910128287c3f15fa4b24b9"),
    "poly_sign": (lambda: families.family_target("poly_sign"), 19,
                  "f3abecaa099bea0871e573253e5008af142da2c26e191052065a227b3ece5c8f"),
    "poly_thresh": (lambda: families.family_target("poly_thresh"), 18,
                    "9360d8f3f05f72d0987af6e284f91bdcb791e8e4064f88dd9386a2c3611f2d63"),
    "poly_phase": (lambda: families.family_target("poly_phase"), 18,
                   "11f5b3cc7548ec1519e01a4b1cb7002f4f1b9cbe0ba7cc0fe9b7f3814ca190f1"),
    "gibbs_3.5_20": (lambda: gibbs_poly(3.5, 20).poly, 20,
                     "422fdb44a2413106da1e2415e7bc62b4ccf4c5203e68f4349b6218d2ac213fee"),
    "relu_0.6_15_20": (lambda: relu_poly(0.6, 15.0, 20).poly, 20,
                       "2cc0e27a783657772fde9f5cb7cd2eef10a8235f062c195beecdd254e1b32484"),
    "rect_0.05_10": (lambda: rect_poly(0.05, 10.0), 156,
                     "8f779905b53e3aa2014fabed37b0e208de37090624d517f7d95ed93760f3a8ad"),
    "inverse_0.1_3": (lambda: inverse_poly(0.1, 3.0), 31,
                      "51b00d15486a6ccfa1bff130b0ccb3acb9ac19ce61a201c1da62e30f245fe8d3"),
}


@pytest.mark.parametrize("name", sorted(COEFF_DIGESTS))
def test_coefficient_bytes_are_pinned(name):
    make, degree, digest = COEFF_DIGESTS[name]
    p = make()
    assert p.degree == degree
    assert hashlib.sha256(p.coeffs.tobytes()).hexdigest() == digest


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


class TestScipyReferences:
    """The numpy/math special functions of poly_approx against scipy."""

    @pytest.mark.parametrize("t", [0.5, -0.5, 5.0, 15.0, 30.0, 100.0, 400.0])
    def test_bessel_orders_match_jv(self, t):
        # cos(tx) + sin(tx) = J_0(t) + 2 sum_k>0 (-1)^floor(k/2) J_k(t) T_k(x)
        order = int(1.5 * abs(t)) + 30
        k = np.arange(order + 1)
        bessel = 0.5 * _jacobi_anger_coeffs(t, order) * (-1.0) ** (k // 2)
        bessel[0] *= 2.0
        assert np.max(np.abs(bessel - jv(k, t))) <= 2e-14

    def test_erf_matches(self):
        x = np.linspace(-8.0, 8.0, 100_001)
        assert np.max(np.abs(_erf(x) - erf(x))) <= 1e-15

    @pytest.mark.parametrize("t", [1e-3, 0.3, 2.0, 5.0, 15.0, 120.0, 3000.0])
    @pytest.mark.parametrize("eps", [0.3, 0.1, 1e-3, 1e-8, 1e-14])
    def test_truncation_root_matches_brentq(self, t, eps):
        spec = solve_truncation(t, eps)
        log_eps = math.log(spec.eps_arg)
        r = brentq(lambda x: x * (math.log(spec.t_arg) - math.log(x)) - log_eps,
                   spec.t_arg * (1 + 1e-14), 4.0 * spec.t_arg + 100.0, xtol=1e-300, rtol=1e-15)
        assert spec.k_prime == math.floor(0.5 * r)
        assert abs(spec.r_value - r) <= 1e-13 * r

    def test_inverse_coefficients_match_gammaln(self):
        b, d_cap = inverse_poly_params(0.1, 2.0)
        i = np.arange(1, b + 1, dtype=float)
        terms = np.exp(gammaln(2 * b + 1) - gammaln(b + i + 1) - gammaln(b - i + 1)
                       - 2 * b * math.log(2.0))
        tail = np.append(np.cumsum(terms[::-1])[::-1], np.zeros(d_cap + 1))
        ref = 4.0 * (-1.0) ** np.arange(d_cap + 1) * tail[: d_cap + 1]
        coeffs = inverse_poly(0.1, 2.0).coeffs[1::2]
        assert np.all(np.abs(coeffs - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("eps, kappa", [(0.05, 3.0), (0.01, 5.0), (0.01, 10.0)])
    def test_inverse_coefficients_match_exact_binomials(self, eps, kappa):
        # the log-space sum carries about one ulp of lgamma(2b + 1), relative,
        # whichever lgamma computes it
        b, d_cap = inverse_poly_params(eps, kappa)
        binomial = [math.comb(2 * b, b + i) for i in range(b + 1)] + [0] * (d_cap + 1)
        tails = np.cumsum([0] + binomial[:0:-1])[::-1]  # tails[j] = sum_{i > j} C(2b, b + i)
        ref = np.array([4 * (-1) ** j * (tails[j] / 4**b) for j in range(d_cap + 1)], dtype=float)
        coeffs = inverse_poly(eps, kappa).coeffs[1::2]
        tol = 2.0 * math.ulp(math.lgamma(2 * b + 1.0))
        assert np.max(np.abs(coeffs - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("make, degree", [
    (lambda: phase_estimation_poly(1e-6, 0.1), 418),
    (lambda: eigenvalue_threshold_poly(1e-6, 0.1, 0.5), 512),
    (lambda: jacobi_anger_cos(15.0, 1e-3), 26),
    (lambda: jacobi_anger_sin(15.0, 1e-3), 27),
], ids=["phase_estimation", "threshold", "jacobi_anger_cos", "jacobi_anger_sin"])
def test_certified_degrees(make, degree):
    assert make().degree == degree


def _reference_grow_and_certify(target, parity, start_degree, keep, reference, budget, undershoots):
    """The grow-and-certify loop with the unscreened binary search, as the
    builders ran before the screen and the undershoot rule: every degree is
    rescaled (by its exact sup) and certified on the whole grid and by its
    exact sup, and so is every probe of the trim.  Checks on the way that
    each degree the undershoot rule would skip fails here."""
    grid = cert_grid()
    mask = keep(grid)
    ref = reference(grid[mask])

    def certify(p):
        vals = _chebval(grid, p.coeffs)
        return bool(np.max(np.abs(vals)) <= 1.0 + 1e-12
                    and np.max(np.abs(vals[mask] - ref), initial=0.0) <= budget
                    and _exact_sup(p.coeffs) <= 1.0 + 1e-12)

    degree, skipped = min(start_degree, DEGREE_CAP), 0
    while True:
        coeffs = interpolate(target, degree, parity).coeffs
        sup = _exact_sup(coeffs)
        poly = ChebyshevPoly(coeffs / (sup * (1.0 + 1e-12)) if sup > 1.0 else coeffs,
                             parity).trimmed()
        certified = certify(poly)
        if undershoots(_chebval(grid[::poly_approx.SCREEN_STRIDE], coeffs)):
            assert not certified, f"degree {degree} skipped but certifies"
            skipped += 1
        if certified:
            break
        assert degree < DEGREE_CAP
        degree = min(DEGREE_CAP, max(degree + 2, int(degree * 1.5)))
    candidates = range(poly.degree % 2, poly.degree + 1, 2)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if certify(ChebyshevPoly(poly.coeffs[: candidates[mid] + 1], parity)):
            hi = mid
        else:
            lo = mid + 1
    return ChebyshevPoly(poly.coeffs[: candidates[hi] + 1], parity), poly.degree, skipped


# every grow-and-certify family; the last two trim 511 -> 499 and 512 -> 458
GROWN_BUILDS = {
    "sign_0.1_0.4": lambda: sign_poly(0.1, 0.4),
    "sign_0.01_0.1": lambda: sign_poly(0.01, 0.1),
    "thresh_0.05_0.2_0.5": lambda: eigenvalue_threshold_poly(0.05, 0.2, 0.5),
    "pe_0.1_0.2": lambda: phase_estimation_poly(0.1, 0.2),
    "inv_0.05_3": lambda: matrix_inversion_poly(0.05, 3.0),
    "rect_0.1_5": lambda: rect_poly(0.1, 5.0),
    "inv_0.05_41": lambda: matrix_inversion_poly(0.05, 41.0),
    "rect_0.05_30": lambda: rect_poly(0.05, 30.0),
}
TRIMMED = {"inv_0.05_41": (511, 499), "rect_0.05_30": (512, 458)}


@pytest.mark.parametrize("name", list(GROWN_BUILDS))
def test_screened_build_matches_the_full_reference(name, monkeypatch):
    calls = []

    class Recording(poly_approx._Certifier):
        def __init__(self, keep, reference, budget):
            super().__init__(keep, reference, budget)
            self.args = (keep, reference, budget)

    real_grow = poly_approx._grow_and_certify

    def grow(target, parity, start_degree, certifier):
        calls.append((target, parity, start_degree, certifier))
        return real_grow(target, parity, start_degree, certifier)

    monkeypatch.setattr(poly_approx, "_Certifier", Recording)
    monkeypatch.setattr(poly_approx, "_grow_and_certify", grow)
    got = GROWN_BUILDS[name]()
    (target, parity, start_degree, certifier), = calls
    want, grown, skipped = _reference_grow_and_certify(
        target, parity, start_degree, *certifier.args, certifier.undershoots)
    assert got.parity is want.parity and got.coeffs.tobytes() == want.coeffs.tobytes()
    # the certified object keeps the grid values it was certified on
    assert got._grid_values.tobytes() == _chebval(cert_grid(), want.coeffs).tobytes()
    if name in TRIMMED:
        assert (grown, got.degree) == TRIMMED[name]
    if name == "sign_0.01_0.1":
        assert skipped == 2


def test_sign_build_costs_one_grid_pass_and_no_eigensolve(monkeypatch):
    passes, eigensolves = [], []
    real_chebval, real_eigvals = poly_approx._chebval, np.linalg.eigvals

    def chebval(x, coeffs):
        if np.size(x) >= CERT_GRID_SIZE:
            passes.append(np.shape(coeffs))
        return real_chebval(x, coeffs)

    def eigvals(a):
        eigensolves.append(np.shape(a))
        return real_eigvals(a)

    monkeypatch.setattr(poly_approx, "_chebval", chebval)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    # 12 passes and 3 eigensolves without the screen and the undershoot rule,
    # and 4 and 1 with the rule on the full grid and companion-eigensolve sups
    p = sign_poly(0.01, 0.1)
    assert p.degree == 153
    assert len(passes) <= 1 and eigensolves == []
    passes.clear()
    solve_phases(p)  # its sup norm reads the grid values the certification cached
    assert passes == [] and eigensolves == []


@pytest.mark.parametrize("make, builds, first", [
    (lambda: sign_poly(0.01, 0.1), 2, 0),
    (lambda: matrix_inversion_poly(0.05, 3.0), 4, 0),
    (lambda: sign_poly_from_steepness(61, 12.0), 1, 1),
    (lambda: jacobi_anger_cos(15.0, 1e-3), 0, 1),
], ids=["sign", "inversion", "sign-steepness", "jacobi-anger"])
def test_a_polynomial_takes_its_exact_sup_once(make, builds, first, monkeypatch):
    # the extremum sweep runs only in ChebyshevPoly._sup, cached on the
    # object.  A grown build takes it for the rescale of its interpolant and
    # for each candidate that certifies on the grid, its result included, so
    # a solve reads the result's sup from the cache; a rescaled fixed-degree
    # target and a Jacobi-Anger series take it at their first solve.  Every
    # solve takes one more, on its residual's error series.
    calls = []
    real_exact_sup = poly_approx._exact_sup

    def exact_sup(coeffs):
        calls.append(coeffs.tobytes())
        return real_exact_sup(coeffs)

    monkeypatch.setattr(poly_approx, "_exact_sup", exact_sup)
    p = make()
    assert len(calls) == builds
    first_phases = solve_phases(p)
    assert len(calls) == builds + first + 1
    assert solve_phases(p).phases == first_phases.phases
    assert len(calls) == builds + first + 2
    assert calls.count(p.coeffs.tobytes()) == 1


@pytest.mark.parametrize("kind", ["even", "odd", "none"])
@pytest.mark.parametrize("degree", [100, 255, 256, 333, 511, 512])
def test_the_exact_sup_matches_the_critical_points_up_to_the_cap(kind, degree):
    # as the property test does up to degree 60: never below a 10^5-point
    # scan, and within the evaluator's rounding of |p| at the ends and at the
    # real parts of the roots of p' (numpy's companion eigensolve)
    c = _random_series(degree, kind, 5000 + degree)
    margin = 1e-14 * np.sum(np.abs(c))
    scan = np.max(np.abs(_chebval(np.cos(np.linspace(0.0, np.pi, 100_000)), c)))
    points = np.clip(cheb.chebroots(cheb.chebder(c)).real, -1.0, 1.0)
    reference = np.max(np.abs(_chebval(np.append(points, [-1.0, 1.0]), c)))
    sup = _exact_sup(c)
    assert sup >= scan - margin
    assert abs(sup - reference) <= margin


@pytest.mark.parametrize("make", [
    lambda: rect_poly(0.05, 30.0),
    lambda: eigenvalue_threshold_poly(0.01, 0.05, 0.5),
], ids=["rect_0.05_30", "thresh_0.01_0.05_0.5"])
def test_a_grown_build_is_bounded_between_grid_points(make):
    # certified on the grid alone, these reached 1.000143 and 1 + 7.1e-7
    # between its points; each certifies now with an exact sup within 1 +
    # 1e-12, checked against the roots of p', or fails at the degree cap
    try:
        p = make()
    except DegreeCapExceeded:
        return
    points = np.clip(cheb.chebroots(cheb.chebder(p.coeffs)).real, -1.0, 1.0)
    assert np.max(np.abs(p(np.append(points, [-1.0, 1.0])))) <= 1.0 + 1e-12
    assert p._sup <= 1.0 + 1e-12


def test_no_build_or_solve_takes_an_eigensolve(monkeypatch):
    def eigensolve(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvals", eigensolve)
    monkeypatch.setattr(np.linalg, "eig", eigensolve)
    polys = [
        sign_poly(0.1, 0.4),
        eigenvalue_threshold_poly(0.05, 0.2, 0.5),
        phase_estimation_poly(0.1, 0.2),
        matrix_inversion_poly(0.05, 3.0),
        rect_poly(0.1, 5.0),
        jacobi_anger_cos(15.0, 1e-3),
        jacobi_anger_sin(15.0, 1e-3),
        sign_poly_from_steepness(19, 10.0),
        families.family_target("poly_thresh"),
        families.family_target("poly_phase"),
        gibbs_poly(3.5, 20).poly,
        relu_poly(0.6, 15.0, 20).poly,
        eigenstate_filter_poly(15, 0.3),
    ]
    for p in polys:
        solve_phases(p)
    assert inverse_poly(0.1, 3.0).degree == 31
