"""Target-function polynomial families in the Chebyshev basis.

Every constructor returns a parity-tagged polynomial that has been checked
on a dense certification grid against the bounds stated in its contract
(boundedness on [-1, 1] and approximation accuracy outside the transition
windows).  Certification is the contract: every result is re-checked rather
than trusted by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.special import erf, gammaln, jv
from scipy.optimize import brentq

from .errors import (
    ConvergenceError,
    DegreeCapExceeded,
    DomainError,
    OverflowGuard,
    ParityError,
    _json_field,
)

CERT_GRID_SIZE = 4096
PARITY_TOL = 1e-14
DEFAULT_DEGREE_CAP = 512

# largest epsilon for which the erf-based sign construction applies
SIGN_EPSILON_MAX = math.sqrt(2.0 / (math.e * math.pi))

# max over u > 0 of (1 - exp(-u^2)) / u, reached where exp(u^2) = 1 + 2 u^2
_INVERSION_PEAK = 0.6381726863389515
# largest kappa / epsilon for which the smooth inversion target has sup <= 1
INVERSION_RATIO_MAX = 0.5 * math.exp((2.0 / _INVERSION_PEAK) ** 2)


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    NONE = "none"


@dataclass(frozen=True)
class ChebyshevPoly:
    """Real polynomial sum_k coeffs[k] * T_k(x) with a parity tag."""

    coeffs: np.ndarray
    parity: Parity = Parity.NONE

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float)).copy()
        if c.ndim != 1 or len(c) == 0:
            raise DomainError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")
        if self.parity is not Parity.NONE:
            off = c[1::2] if self.parity is Parity.EVEN else c[0::2]
            bad = np.max(np.abs(off)) if len(off) else 0.0
            if bad > PARITY_TOL:
                raise ParityError(
                    f"coefficient of opposite parity has magnitude {bad:.3e}"
                )
            if self.parity is Parity.EVEN:
                c[1::2] = 0.0
            else:
                c[0::2] = 0.0
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        big = np.nonzero(np.abs(self.coeffs) > PARITY_TOL)[0]
        return int(big[-1]) if len(big) else 0

    def __call__(self, x):
        return cheb.chebval(x, self.coeffs)

    def trimmed(self) -> "ChebyshevPoly":
        return ChebyshevPoly(self.coeffs[: self.degree + 1], self.parity)

    def scaled(self, factor: float) -> "ChebyshevPoly":
        return ChebyshevPoly(self.coeffs * factor, self.parity)

    def sup_norm(self, grid=None) -> float:
        if grid is None:
            grid = cert_grid()
        return float(np.max(np.abs(self(grid))))


def cert_grid(n: int = CERT_GRID_SIZE) -> np.ndarray:
    return np.linspace(-1.0, 1.0, n)


def poly_to_json(poly: ChebyshevPoly) -> str:
    return json.dumps(
        {"parity": poly.parity.value, "coeffs": list(map(float, poly.coeffs))},
        sort_keys=True,
    )


def poly_from_json(text: str) -> ChebyshevPoly:
    payload = json.loads(text)
    return ChebyshevPoly(
        _json_field(payload, "coeffs", lambda v: np.array(v, dtype=float), "polynomial"),
        _json_field(payload, "parity", Parity, "polynomial"),
    )


def _project_parity(coeffs: np.ndarray, parity: Parity) -> np.ndarray:
    out = coeffs.copy()
    if parity is Parity.EVEN:
        out[1::2] = 0.0
    elif parity is Parity.ODD:
        out[0::2] = 0.0
    return out


def interpolate(func: Callable, degree: int, parity: Parity = Parity.NONE) -> ChebyshevPoly:
    """Chebyshev interpolation at Chebyshev points, with parity projection."""
    coeffs = cheb.chebinterpolate(func, degree)
    return ChebyshevPoly(_project_parity(coeffs, parity), parity)


def _certified_trim(poly: ChebyshevPoly, passes: Callable[[ChebyshevPoly], bool]) -> ChebyshevPoly:
    """Smallest leading segment of coeffs that still passes certification.

    Binary search on the truncation degree; the certified input is returned
    unchanged if no truncation passes.
    """
    full = poly.trimmed()
    if not passes(full):
        return poly
    step = 2 if poly.parity is not Parity.NONE else 1
    lo_parity = full.degree % 2 if poly.parity is not Parity.NONE else 0
    candidates = list(range(lo_parity, full.degree + 1, step))
    lo, hi = 0, len(candidates) - 1  # hi always passes
    while lo < hi:
        mid = (lo + hi) // 2
        trial = ChebyshevPoly(full.coeffs[: candidates[mid] + 1], poly.parity)
        if passes(trial):
            hi = mid
        else:
            lo = mid + 1
    return ChebyshevPoly(full.coeffs[: candidates[hi] + 1], poly.parity)


def _critical_points(coeffs: np.ndarray) -> np.ndarray:
    """Points of [-1, 1] among which are all real critical points of p.

    Every root is clipped onto the interval, so complex roots only add
    harmless extra points.  A parity-definite p is handled at half size
    through y = 2x^2 - 1, since T_2j(x) = T_j(y): an even p' is r(y), with
    roots at both signs of x, and an even p is p(x) = r(y), symmetric and
    stationary at x = 0 and wherever r' vanishes.
    """
    def to_x(y_roots):
        return np.sqrt(0.5 * (1.0 + np.clip(y_roots.real, -1.0, 1.0)))

    der = cheb.chebder(coeffs)
    if not np.any(der[1::2]):
        x = to_x(cheb.chebroots(der[::2]))
        return np.concatenate([x, -x])
    if not np.any(coeffs[1::2]):
        return np.append(to_x(cheb.chebroots(cheb.chebder(coeffs[::2]))), 0.0)
    return np.clip(cheb.chebroots(der).real, -1.0, 1.0)


def _true_sup(coeffs: np.ndarray, grid: np.ndarray) -> float:
    """max |p| on [-1, 1]: the grid maximum together with |p| at the real
    critical points of p, which the grid can step over."""
    points = np.concatenate([grid, _critical_points(coeffs)])
    return float(np.max(np.abs(cheb.chebval(points, coeffs))))


def _rescale_into_unit(coeffs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Scale coefficients so the sup norm on [-1, 1] is at most 1."""
    sup = _true_sup(coeffs, grid)
    if sup > 1.0:
        coeffs = coeffs / (sup * (1.0 + 1e-12))
    return coeffs


def _unit_interpolant(target: Callable, degree: int, parity: Parity) -> ChebyshevPoly:
    """Parity-projected interpolant of target, scaled into the unit ball on
    [-1, 1]."""
    coeffs = interpolate(target, degree, parity).coeffs
    return ChebyshevPoly(_rescale_into_unit(coeffs, cert_grid()), parity)


def _certifier(keep: Callable, reference: Callable, budget: float) -> Callable:
    """Certification test on the dense grid: |p| <= 1 + 1e-12 everywhere,
    and |p - reference| <= budget on the grid points where keep holds."""
    grid = cert_grid()
    mask = keep(grid)
    ref = reference(grid[mask])

    def certify(p: ChebyshevPoly) -> bool:
        vals = p(grid)
        return bool(np.max(np.abs(vals)) <= 1.0 + 1e-12
                    and np.max(np.abs(vals[mask] - ref), initial=0.0) <= budget)

    return certify


def _grow_and_certify(
    build: Callable[[int], ChebyshevPoly],
    start_degree: int,
    degree_cap: int,
    certify: Callable[[ChebyshevPoly], bool],
) -> ChebyshevPoly:
    """Grow the degree of build(degree) by ~1.5x until it certifies, then
    trim it to the smallest certifying truncation."""
    degree = min(start_degree, degree_cap)
    while True:
        poly = build(degree)
        if certify(poly):
            return _certified_trim(poly, certify)
        if degree >= degree_cap:
            raise DegreeCapExceeded(
                f"certification failed at degree cap {degree_cap}"
            )
        degree = min(degree_cap, max(degree + 2, int(degree * 1.5)))


# ---------------------------------------------------------------------------
# Sign family


def erf_scale(epsilon: float, delta: float) -> float:
    """Steepness k of erf(k x) used to approximate the sign function."""
    return (math.sqrt(2.0) / delta) * math.sqrt(math.log(2.0 / (math.pi * epsilon**2)))


def _validate_sign_args(epsilon: float, delta: float):
    if not 0.0 < epsilon <= SIGN_EPSILON_MAX:
        raise DomainError(
            f"epsilon must lie in (0, {SIGN_EPSILON_MAX:.6f}], got {epsilon}"
        )
    if delta <= 0.0:
        raise DomainError("transition width delta must be positive")


def sign_poly(
    epsilon: float, delta: float, degree_cap: int = DEFAULT_DEGREE_CAP
) -> ChebyshevPoly:
    """Odd polynomial within epsilon of sign(x) outside (-delta/2, delta/2).

    Constructed by Chebyshev interpolation of erf(k x) with the steepness
    k tied to (epsilon, delta); the degree is grown until both the unit
    bound and the accuracy window certify on the dense grid.
    """
    _validate_sign_args(epsilon, delta)
    k = erf_scale(epsilon, delta)
    certify = _certifier(lambda g: np.abs(g) > delta / 2, np.sign, epsilon)
    start = int(2 * math.ceil(0.8 * k) + 1)
    return _grow_and_certify(
        lambda d: _unit_interpolant(lambda x: erf(k * x), d, Parity.ODD),
        max(start, 9), degree_cap, certify,
    )


def sign_poly_from_steepness(degree: int, k: float) -> ChebyshevPoly:
    """Fixed-degree odd interpolant of erf(k x), scaled into the unit ball.

    Family-style variant parameterized by (degree, steepness) rather than
    an accuracy budget.
    """
    if degree % 2 == 0:
        raise DomainError("sign family degree must be odd")
    return _unit_interpolant(lambda x: erf(k * x), degree, Parity.ODD)


def _symmetric_step_poly(
    epsilon: float,
    delta: float,
    center: float,
    degree_cap: int,
) -> ChebyshevPoly:
    """Even, unit-bounded polynomial behaving as the step at x = center.

    Realizes (-1 + eps/4 + S(center - x) + S(center + x)) / (1 + eps/4)
    where S is the erf step of the (eps/2, delta) sign construction.  The
    result tracks sign(center - x) within eps on [0, 1] outside the
    transition window.
    """
    _validate_sign_args(epsilon, delta)
    k = erf_scale(epsilon / 2, delta)
    norm = 1.0 / (1.0 + epsilon / 4)

    def target(x):
        return norm * (-1.0 + epsilon / 4 + erf(k * (center - x)) + erf(k * (center + x)))

    certify = _certifier(lambda g: (g >= 0.0) & (np.abs(g - center) > delta / 2),
                         lambda x: np.sign(center - x), epsilon)
    start = int(2 * math.ceil(0.8 * k) + 2)
    return _grow_and_certify(
        lambda d: _unit_interpolant(target, d, Parity.EVEN), max(start, 10), degree_cap, certify
    )


def eigenvalue_threshold_poly(
    epsilon: float,
    delta: float,
    threshold: float,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> ChebyshevPoly:
    """Even polynomial distinguishing singular values across a threshold.

    ``threshold`` is the rescaled cut lambda_th / alpha in (0, 1); the
    window (threshold - delta/2, threshold + delta/2) must stay inside (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError("threshold must lie in (0, 1)")
    if threshold - delta / 2 <= 0.0 or threshold + delta / 2 >= 1.0:
        raise DomainError("transition window overflows (0, 1)")
    return _symmetric_step_poly(epsilon, delta, threshold, degree_cap)


def phase_estimation_poly(
    epsilon: float, delta: float, degree_cap: int = DEFAULT_DEGREE_CAP
) -> ChebyshevPoly:
    """Even step polynomial at 1/sqrt(2), used to read out phase bits."""
    return _symmetric_step_poly(epsilon, delta, 1.0 / math.sqrt(2.0), degree_cap)


# ---------------------------------------------------------------------------
# Jacobi-Anger family


@dataclass(frozen=True)
class TruncationSpec:
    """Solution of the implicit truncation equation (t/r)^r = eps."""

    t_arg: float
    eps_arg: float
    r_value: float
    k_prime: int


def solve_truncation(t: float, epsilon: float) -> TruncationSpec:
    """Truncation index for the Jacobi-Anger series at time t, accuracy eps.

    Solves (t'/r)^r = eps' with t' = (e/2)|t| and eps' = (5/4) eps, then
    k' = floor(r / 2).  Requires 0 < eps < 1/e and t > 0.
    """
    if not 0.0 < epsilon < 1.0 / math.e:
        raise DomainError("epsilon must lie in (0, 1/e)")
    if t <= 0.0:
        raise DomainError("t must be positive")
    t_arg = 0.5 * math.e * abs(t)
    eps_arg = 1.25 * epsilon
    log_eps = math.log(eps_arg)

    def h(r):
        return r * (math.log(t_arg) - math.log(r)) - log_eps

    lo = t_arg * (1.0 + 1e-14)
    hi = max(3.0 * t_arg, t_arg + 10.0)
    for _ in range(200):
        if h(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the truncation equation")
    r = brentq(h, lo, hi, xtol=1e-300, rtol=1e-15)
    resid = abs((t_arg / r) ** r - eps_arg)
    if not (r > t_arg and resid <= 1e-10 * eps_arg + 1e-14):
        raise ConvergenceError(f"truncation root rejected (residual {resid:.3e})")
    return TruncationSpec(t_arg, eps_arg, float(r), int(math.floor(0.5 * r)))


def jacobi_anger_cos(t: float, epsilon: float) -> ChebyshevPoly:
    """Even truncation of cos(x t), rescaled by 1/(1+eps) into the unit ball.

    The truncation keeps Bessel terms through index 2k'; rescaling turns the
    eps-accurate series into a 2*eps-accurate unit-bounded polynomial.
    """
    if t == 0.0:
        return ChebyshevPoly([1.0 / (1.0 + epsilon)], Parity.EVEN)
    kp = solve_truncation(t, epsilon).k_prime
    coeffs = np.zeros(2 * kp + 1)
    coeffs[0] = jv(0, t)
    for k in range(1, kp + 1):
        coeffs[2 * k] = 2.0 * (-1) ** k * jv(2 * k, t)
    return ChebyshevPoly(coeffs / (1.0 + epsilon), Parity.EVEN)


def jacobi_anger_sin(t: float, epsilon: float) -> ChebyshevPoly:
    """Odd truncation of sin(x t), rescaled by 1/(1+eps)."""
    if t == 0.0:
        return ChebyshevPoly([0.0, 0.0], Parity.ODD)
    kp = solve_truncation(t, epsilon).k_prime
    coeffs = np.zeros(2 * kp + 2)
    for k in range(0, kp + 1):
        coeffs[2 * k + 1] = 2.0 * (-1) ** k * jv(2 * k + 1, t)
    return ChebyshevPoly(coeffs / (1.0 + epsilon), Parity.ODD)


# ---------------------------------------------------------------------------
# Inverse family


def inverse_poly_params(epsilon: float, kappa: float) -> tuple:
    """(b, D) integer parameters of the truncated 1/x expansion."""
    if not 0.0 < epsilon < 0.5:
        raise DomainError("epsilon must lie in (0, 1/2)")
    if kappa < 1.0:
        raise DomainError("kappa must be >= 1")
    b = int(math.ceil(kappa**2 * math.log(kappa / epsilon)))
    b = max(b, 1)
    d_cap = int(math.ceil(math.sqrt(b * math.log(4.0 * b / epsilon))))
    return b, d_cap


def inverse_poly(epsilon: float, kappa: float) -> ChebyshevPoly:
    """Odd polynomial within 2*eps of 1/x on [-1,1] away from [-1/k, 1/k].

    Coefficient of T_{2j+1} is 4*(-1)^j * 2^{-2b} * sum_{i>j} C(2b, b+i),
    accumulated in log space.  The sup norm over [-1,1] is bounded by 4D.
    """
    b, d_cap = inverse_poly_params(epsilon, kappa)
    i = np.arange(1, b + 1, dtype=float)
    log_terms = gammaln(2 * b + 1) - gammaln(b + i + 1) - gammaln(b - i + 1) - 2 * b * math.log(2.0)
    terms = np.exp(log_terms)
    if not np.all(np.isfinite(terms)):
        raise OverflowGuard("binomial tail accumulation produced non-finite terms")
    tail = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])  # tail[j] = sum_{i>j}
    if d_cap >= len(tail):
        tail = np.pad(tail, (0, d_cap + 1 - len(tail)))
    coeffs = np.zeros(2 * d_cap + 2)
    for j in range(0, d_cap + 1):
        coeffs[2 * j + 1] = 4.0 * (-1) ** j * tail[j]
    poly = ChebyshevPoly(coeffs, Parity.ODD)

    grid = cert_grid()
    vals = poly(grid)
    if np.max(np.abs(vals)) > 4.0 * d_cap + 1e-9:
        raise DegreeCapExceeded("inverse polynomial exceeded its 4D sup bound")
    outside = np.abs(grid) > 1.0 / kappa
    if np.any(outside):
        err = np.max(np.abs(vals[outside] - 1.0 / grid[outside]))
        if err > 2.0 * epsilon:
            raise DegreeCapExceeded(
                f"inverse polynomial missed the 2*eps accuracy bound ({err:.3e})"
            )
    return poly


def rect_poly(
    epsilon: float, kappa: float, degree_cap: int = DEFAULT_DEGREE_CAP
) -> ChebyshevPoly:
    """Even unit-bounded window polynomial: ~1 outside [-1/k, 1/k], ~0 inside
    [-1/(2k), 1/(2k)], built from two opposed erf steps at +-3/(4k).

    Interpolation wiggle would violate the one-sided [0, eps] constraint
    where the target vanishes, so the interpolant is lifted by its observed
    error and renormalized before certification.
    """
    if kappa < 1.0:
        raise DomainError("kappa must be >= 1")
    delta = 1.0 / (4.0 * kappa)
    eps_build = epsilon / 2.0
    _validate_sign_args(eps_build, delta)
    k = erf_scale(eps_build, delta)
    c = 3.0 / (4.0 * kappa)
    norm = 1.0 / (1.0 + eps_build / 2)

    def target(x):
        return norm * (1.0 + 0.5 * (erf(k * (x - c)) + erf(k * (-x - c))))

    grid = cert_grid()
    target_vals = target(grid)
    outer = np.abs(grid) >= 1.0 / kappa
    inner = np.abs(grid) <= 1.0 / (2.0 * kappa)

    def certify(p: ChebyshevPoly) -> bool:
        vals = p(grid)
        if np.max(np.abs(vals)) > 1.0 + 1e-12:
            return False
        if np.any(vals[outer] < 1.0 - epsilon) or np.any(vals[outer] > 1.0 + 1e-12):
            return False
        return not (np.any(vals[inner] < -1e-12) or np.any(vals[inner] > epsilon))

    def build(degree: int) -> ChebyshevPoly:
        coeffs = _project_parity(cheb.chebinterpolate(target, degree), Parity.EVEN)
        eta = float(np.max(np.abs(cheb.chebval(grid, coeffs) - target_vals)))
        lifted = coeffs / (1.0 + 2.0 * eta)
        lifted[0] += eta / (1.0 + 2.0 * eta)
        return ChebyshevPoly(lifted, Parity.EVEN)

    start = max(int(2 * math.ceil(0.8 * k) + 2), 10)
    return _grow_and_certify(build, start, degree_cap, certify)


def matrix_inversion_poly(
    epsilon: float, kappa: float, degree_cap: int = DEFAULT_DEGREE_CAP
) -> ChebyshevPoly:
    """Odd, unit-bounded approximation of 1/(2*kappa*x) on |x| in [1/k, 1].

    Interpolates the odd entire function h(x) = (1 - exp(-(s x)^2)) /
    (2 kappa x), s = kappa * sqrt(ln(2 kappa / eps)), which is within
    eps/(4 kappa) of 1/(2 kappa x) on |x| >= 1/kappa, and grows the degree
    until the unit bound and eps/(2 kappa) accuracy certify on the grid.
    sup h = (s / (2 kappa)) * _INVERSION_PEAK passes 1 once kappa / eps
    exceeds INVERSION_RATIO_MAX (about 9214).
    """
    if kappa < 1.0 or not 0.0 < epsilon < 0.5 * kappa:
        raise DomainError("requires kappa >= 1 and 0 < epsilon / kappa < 1/2")
    s = kappa * math.sqrt(math.log(2.0 * kappa / epsilon))
    if kappa / epsilon > INVERSION_RATIO_MAX:
        raise DomainError(
            f"kappa / epsilon = {kappa / epsilon:.6g} exceeds {INVERSION_RATIO_MAX:.6g}: the"
            f" smooth 1/(2*kappa*x) target has sup {s / (2.0 * kappa) * _INVERSION_PEAK:.6f} > 1"
        )

    def target(x):  # h(0) = 0, as -expm1(0) / inf
        return -np.expm1(-((s * x) ** 2)) / (2.0 * kappa * np.where(x == 0.0, np.inf, x))

    certify = _certifier(lambda g: np.abs(g) > 1.0 / kappa,
                         lambda x: 1.0 / (2.0 * kappa * x), epsilon / (2.0 * kappa))
    return _grow_and_certify(lambda d: _unit_interpolant(target, d, Parity.ODD),
                             2 * math.ceil(s) + 1, degree_cap, certify)


# ---------------------------------------------------------------------------
# Eigenstate filter, Gibbs, ReLU


def _cheb_t(order: int, y) -> np.ndarray:
    """T_order(y) for any real y, stable beyond [-1, 1]."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    inside = np.abs(y) <= 1.0
    out[inside] = np.cos(order * np.arccos(y[inside]))
    yo = y[~inside]
    out[~inside] = np.sign(yo) ** order * np.cosh(order * np.arccosh(np.abs(yo)))
    return out


def eigenstate_filter_poly(k: int, delta_lambda: float) -> ChebyshevPoly:
    """Degree-2k even filter equal to 1 at x = 0 and damped for |x| > gap."""
    if k < 1:
        raise DomainError("filter order k must be >= 1")
    if not 0.0 < delta_lambda < 1.0:
        raise DomainError("gap must lie in (0, 1)")
    scale = 1.0 / (1.0 - delta_lambda**2)

    def arg(x):
        return -1.0 + 2.0 * (x * x - delta_lambda**2) * scale

    denom = _cheb_t(k, arg(0.0))

    def target(x):
        return _cheb_t(k, arg(np.asarray(x, dtype=float))) / denom

    return interpolate(target, 2 * k, Parity.EVEN)


class FitResult(NamedTuple):
    poly: ChebyshevPoly
    residual: float


def _even_fit(target: Callable, degree: int, grid_size: int = 2001) -> FitResult:
    if degree % 2 != 0 or degree < 2:
        raise DomainError("fit degree must be even and >= 2")
    grid = np.linspace(-1.0, 1.0, grid_size)
    design = cheb.chebvander(grid, degree)[:, ::2]
    vals = target(grid)
    sol, *_ = np.linalg.lstsq(design, vals, rcond=None)
    coeffs = np.zeros(degree + 1)
    coeffs[::2] = sol
    coeffs = _rescale_into_unit(coeffs, grid)
    poly = ChebyshevPoly(coeffs, Parity.EVEN)
    residual = float(np.max(np.abs(poly(grid) - vals)))
    return FitResult(poly, residual)


def gibbs_poly(beta: float, degree: int) -> FitResult:
    """Even least-squares fit of exp(-beta * |x|), with reported residual."""
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    return _even_fit(lambda x: np.exp(-beta * np.abs(x)), degree)


def relu_poly(delta: float, steepness: float, degree: int) -> FitResult:
    """Even softplus fit log(1 + exp(k(|x| - delta))) / k, residual reported."""
    if steepness <= 0.0:
        raise DomainError("steepness must be positive")

    def target(x):
        return np.logaddexp(0.0, steepness * (np.abs(x) - delta)) / steepness

    return _even_fit(target, degree)
