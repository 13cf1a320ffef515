"""Target-function polynomial families in the Chebyshev basis.

Every constructor returns a parity-tagged polynomial that has been checked
against the bounds stated in its contract (boundedness on [-1, 1] and
approximation accuracy on the windows outside the transitions).
Certification is the contract: every result is re-checked rather than
trusted by construction.  Polynomials are evaluated by ``_chebval``, which
sums a parity-definite series at half its length, in one Reinsch loop over
every point, each point about its own end of [-1, 1].

Every certificate is exact, from one extremum sweep with no eigensolve and
no grid in x (``_extrema``): the largest error on each window, all read by
one candidate rule, the sup of |p| on [-1, 1] being the first window, with
no reference.  A polynomial's sup is cached on it (``_sup``), and
every unit-ball rescale (``_in_unit_ball``) and the phase solver's bound
check (``phase_solver._nudged``) read it.  The grown families (sign, both
steps, inversion, rect) state their windows as closed intervals of x >= 0
and certify each candidate by one sweep (``_Certifier``); the result keeps
the sup that sweep took, so the solver reads it from the cache.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import (
    ConvergenceError,
    DegreeCapExceeded,
    DomainError,
    ParityError,
    _json_field,
)

PARITY_TOL = 1e-14
DEGREE_CAP = 512

# largest epsilon for which the erf-based sign construction applies
SIGN_EPSILON_MAX = math.sqrt(2.0 / (math.e * math.pi))

# max over u > 0 of (1 - exp(-u^2)) / u, reached where exp(u^2) = 1 + 2 u^2
_INVERSION_PEAK = 0.6381726863389515
# largest kappa / epsilon for which the smooth inversion target has sup <= 1
INVERSION_RATIO_MAX = 0.5 * math.exp((2.0 / _INVERSION_PEAK) ** 2)


_erf_objects = np.frompyfunc(math.erf, 1, 1)


def _erf(x) -> np.ndarray:
    """The error function elementwise: math.erf over the array."""
    return np.asarray(_erf_objects(x), dtype=float)


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    NONE = "none"


@dataclass(frozen=True)
class ChebyshevPoly:
    """Real polynomial sum_k coeffs[k] * T_k(x) with a parity tag.

    Its exact sup on [-1, 1] is cached on the object as ``_sup``, taken by
    one extremum sweep (``_extrema``) at its first read, or kept from the
    sweep that certified it.  ``sup_norm()``, ``_in_unit_ball``, the one
    unit rescale, and the solver's bound check read it.
    """

    coeffs: np.ndarray
    parity: Parity = Parity.NONE

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
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
        c = _project_parity(c, self.parity)  # a copy, whatever the parity
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        big = np.nonzero(np.abs(self.coeffs) > PARITY_TOL)[0]
        return int(big[-1]) if len(big) else 0

    def __call__(self, x):
        return _chebval(x, self.coeffs)

    def trimmed(self) -> "ChebyshevPoly":
        return ChebyshevPoly(self.coeffs[: self.degree + 1], self.parity)

    def scaled(self, factor: float) -> "ChebyshevPoly":
        return ChebyshevPoly(self.coeffs * factor, self.parity)

    def sup_norm(self) -> float:
        """max |p| on [-1, 1], exact to rounding (``_sup``)."""
        return self._sup

    @functools.cached_property
    def _sup(self) -> float:
        """max |p| on [-1, 1], taken once by ``_extrema``."""
        return float(_extrema(self.coeffs)[0])

    def _in_unit_ball(self) -> "ChebyshevPoly":
        """p itself, or p / (s (1 + 1e-12)) when its exact sup s passes 1."""
        s = self._sup
        return self if s <= 1.0 else ChebyshevPoly(self.coeffs / (s * (1.0 + 1e-12)), self.parity)


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


def _chebval(x, coeffs: np.ndarray):
    """sum_k coeffs[k] T_k(x), a parity-definite series at half length.

    In y = 2x^2 - 1, T_2j(x) = T_j(y) and T_2j+1(x) = x V_j(y), where V_j
    are the Chebyshev polynomials of the third kind, V_j(cos t) =
    cos((j + 1/2) t) / cos(t / 2): V_0 = 1, V_1 = 2y - 1 and V_j =
    2y V_{j-1} - V_{j-2}, the recurrence of T_j.  Clenshaw's sum b_k = a_k
    + 2y b_{k+1} - b_{k+2} is then b_0 - y b_1 for the T_j and b_0 - b_1
    for the V_j.  It runs in Reinsch's form about an end e of [-1, 1],
    whose differences d_k = b_k - e b_{k+1} carry y only through mu =
    2(y - e), exact near that end, where the plain recurrence at a rounded
    y is up to 100 times less accurate than numpy's chebval on steep
    targets.  Each point takes its own end, e = -1 and mu = 4x^2 for
    |x| < 1/sqrt(2), e = 1 and mu = -4(1 - x)(1 + x) elsewhere, and one
    loop runs every point at once: b <- e b + d, d <- (e d + mu b) + a_k.
    The factor e = +-1 is exact and each sum keeps the operands of the
    recurrence written for its end alone (d + b or d - b, d + mu b or
    mu b - d), so each value is bit for bit the same whatever points share
    the call.  mu is even in x and the odd sum is x times an even one, so
    p(-x) is -p(x) for an odd series and p(x) for an even one, bit for
    bit.  A series of mixed parity is chebval.
    """
    c = np.asarray(coeffs)
    even = not np.any(c[1::2])
    if not even and np.any(c[0::2]):
        return cheb.chebval(x, c)
    a = c[0::2] if even else c[1::2]
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    inner = np.abs(xs) < math.sqrt(0.5)
    end = np.where(inner, -1.0, 1.0)
    mu = np.where(inner, 4.0 * xs * xs, -4.0 * (1.0 - xs) * (1.0 + xs))
    b = np.zeros(mu.shape)  # b_{k+1}
    d = np.full(mu.shape, a[-1])  # d_k
    t = np.empty(mu.shape)
    for ak in a[-2::-1]:
        b *= end
        b += d
        d *= end
        np.multiply(mu, b, out=t)
        d += t
        d += ak
    # b_0 - y b_1 = d_0 - (mu / 2) b_1 and b_0 - b_1 = d_0 + (e - 1) b_1
    out = d - 0.5 * mu * b if even else xs * (d + (end - 1.0) * b)
    return out.reshape(x.shape)[()]


def _project_parity(coeffs: np.ndarray, parity: Parity) -> np.ndarray:
    out = coeffs.copy()
    if parity is Parity.EVEN:
        out[1::2] = 0.0
    elif parity is Parity.ODD:
        out[0::2] = 0.0
    return out


def _node_coeffs(values: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev coefficients 0..degree of the series through values at the
    n first-kind nodes cos((j + 1/2) pi / n), j = 0..n-1, n > degree: a
    DCT-II, through one FFT of the values and their mirror."""
    n = len(values)
    shift = np.exp(-0.5j * np.pi * np.arange(degree + 1) / n)
    coeffs = (np.fft.fft(np.concatenate([values, values[::-1]]))[: degree + 1] * shift).real / n
    coeffs[0] /= 2.0
    return coeffs


def _require_degree(degree: int):
    """Reject a negative polynomial degree, or one past the cap, before any
    work is spent on it."""
    if degree < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {degree}")
    if degree > DEGREE_CAP:  # past 15 digits, its magnitude
        shown = degree if degree < 10**15 else format(Decimal(degree), ".3g")
        raise DegreeCapExceeded(f"degree {shown} exceeds the degree cap {DEGREE_CAP}")


def interpolate(func: Callable, degree: int, parity: Parity = Parity.NONE) -> ChebyshevPoly:
    """Chebyshev interpolation at Chebyshev points, with parity projection."""
    _require_degree(degree)
    coeffs = cheb.chebinterpolate(func, degree)
    return ChebyshevPoly(_project_parity(coeffs, parity), parity)


def _certified_trim(poly: ChebyshevPoly, certifier: _Certifier) -> ChebyshevPoly:
    """Smallest leading segment of a trimmed, parity-definite poly's coeffs
    that still certifies, by binary search on the truncation degree, one
    sweep per probe; poly certifies.  Returns the certified object itself,
    whose exact sup the certification cached."""
    candidates = range(poly.degree % 2, poly.degree + 1, 2)
    lo, hi = 0, len(candidates) - 1  # candidates[hi] certifies, as best
    best = poly
    while lo < hi:
        mid = (lo + hi) // 2
        probe = ChebyshevPoly(poly.coeffs[: candidates[mid] + 1], poly.parity)
        if certifier(probe):
            hi, best = mid, probe
        else:
            lo = mid + 1
    return best


@functools.lru_cache(maxsize=None)
def _half_turns(m: int) -> np.ndarray:
    """e^{i pi j / m} for j = 0..m/2, read-only: the twiddles that turn an
    odd series' half-length transform into its samples."""
    w = np.exp(1j * np.pi * np.arange(m // 2 + 1) / m)
    w.setflags(write=False)
    return w


def _cosine_sums(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """q(t) = sum_k c_k cos(k t) at each angle t in [0, pi], each cos(k t)
    to about an ulp.  A plain cos(k t) would carry the rounding of the
    product k t, up to k t 2^-53; here t = a + b with a on a 2^-20 grid, so
    that k a is exact for k < 2^31 and |b| <= 2^-21, and cos(k t) =
    cos(k a) cos(k b) - sin(k a) sin(k b).  At a few points this costs a
    handful of array operations where ``_chebval`` loops over the degree,
    and at t = 0 and pi it is the plain sum of the (signed) coefficients."""
    k = np.arange(len(c))
    a = np.round(t * 2.0**20) * 2.0**-20
    ka, kb = np.outer(a, k), np.outer(t - a, k)
    return (np.cos(ka) * np.cos(kb) - np.sin(ka) * np.sin(kb)) @ c


def _refine(c: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            sign: np.ndarray, line: float) -> np.ndarray:
    """Where F(t) = sign q(t) - line cos(t) peaks in each bracket [lo, hi],
    q(t) = sum_k c_k cos(k t) of degree d >= 1: safeguarded Newton on
    F'(t) = 0 from t, where the sign of F' narrows the bracket, and a step
    that leaves it, or meets F'' of the wrong sign, bisects it instead,
    iterated until every step is below 2^-30 / d."""
    d = len(c) - 1
    k = np.arange(d + 1)
    dq, ddq = -k * c, -k * k * c  # q' = sum dq_k sin(k t), q'' = sum ddq_k cos(k t)
    for _ in range(100):
        waves = np.exp(1j * np.outer(t, k))
        slope = sign * (waves.imag @ dq) + line * np.sin(t)
        curve = sign * (waves.real @ ddq) + line * np.cos(t)
        lo = np.where(slope > 0.0, t, lo)
        hi = np.where(slope < 0.0, t, hi)
        newton = t - np.divide(slope, curve, out=np.full(len(t), np.inf), where=curve < 0.0)
        nxt = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.all(np.abs(nxt - t) <= 2.0**-30 / d)
        t = nxt
        if done:
            break
    return t


def _extrema(coeffs: np.ndarray, windows=(), bounds=None) -> np.ndarray:
    """max |p| on [-1, 1] of p = sum_k coeffs[k] T_k, then, for each window
    (a, b, r, s) with 0 <= a <= b <= 1, max |p(x) - r| - s x on [a, b], all
    to rounding, from one transform.

    In x = cos t, p is the cosine series q(t) = sum_k c_k cos(k t) of degree
    d.  One rfft samples q at t_j = pi j / M, M a power of two with M >= 64
    (d + 1): q(t_j) is the real part of the transform of c zero-padded to
    2M.  An odd or even p has |p(-x)| = |p(x)|, so only t <= pi/2, j <=
    M/2, is searched, from a transform of length M: even p is sum_n c_2n
    cos(2n t), the real part of the transform of (c_0, c_2, ...), and odd p
    is Re(e^{i t} conj(F)) for the transform F of (c_1, c_3, ...).

    The sup is the first window: every sample, x from cos(t_end) to 1
    (0 for a series of one parity, -1 for a mixed one), with r = s = 0.  A
    window's error e = |q - r| - s cos t is read on its samples, t_j in
    [acos b, acos a].  Its top is within pi / 2M of a sample, and as |q''|
    <= d^2 S for S = max |q| (Bernstein's inequality), |e''| <= d^2 S + s,
    so that sample is at most r (S + s) below it, r = (d pi / 2M)^2 / 2 <
    3.1e-4, where S is at most the top sample of |q| over 1 - r.  So the
    candidates are the sampled local maxima of e within r (S + s) of its
    top sample, less the FFT's rounding, each refined (``_refine``) inside
    [t_{j-1}, t_{j+1}] from the vertex of the parabola through its samples,
    to within 2^-30 / d of the maximum, where |q| is within 2^-61 S of it;
    and each end sample that is at least its inner neighbour (a peak
    beside the window's end has no sample outside), bracketed from the
    window's end to that neighbour and refined from the end.  The error is
    the largest e at the refined points, the peaks' samples and both ends
    of the window (``_cosine_sums``).  With ``bounds`` (the sup's, then
    each window's), a series with a sample past its bound, a point of the
    interval, is refined no further: its sampled maxima, which already
    fail, are returned.
    """
    c = np.asarray(coeffs, dtype=float)
    d = int(np.flatnonzero(c).max(initial=0))
    c = c[: d + 1]
    m = 1 << (64 * (d + 1) - 1).bit_length()
    if not np.any(c[1::2]):
        samples = np.fft.rfft(c[::2], m).real
    elif not np.any(c[::2]):
        samples = (np.fft.rfft(c[1::2], m).conj() * _half_turns(m)).real
    else:
        samples = np.fft.rfft(c, 2 * m).real
    end = len(samples) - 1  # t = pi/2 for a series of one parity, else pi
    step = math.pi / m
    windows = [(math.cos(end * step), 1.0, 0.0, 0.0), *windows]  # the sup: every sample
    if d == 0:  # a constant: each window's error is largest at its end x = a
        return np.array([abs(c[0] - r) - s * a for a, _, r, s in windows])
    r = 0.5 * (d * math.pi / (2 * m)) ** 2
    rounding = 1e-12 * np.sum(np.abs(c))
    spans = []  # each window's first sample j and its errors e(t_j)
    for a, b, ref, s in windows:
        first = math.ceil(math.acos(b) / step)
        err = np.abs(samples[first : math.floor(math.acos(a) / step) + 1] - ref)
        if s:
            err -= s * np.cos(step * np.arange(first, first + len(err)))
        spans.append((first, err))
    sampled = np.array([err.max(initial=-np.inf) for _, err in spans])
    if bounds is not None and np.any(sampled > bounds):
        return sampled

    out = []
    for (a, b, ref, s), (first, err) in zip(windows, spans):
        last = first + len(err) - 1
        ends = [math.acos(b), math.acos(a)]
        left, mid, right = err[:-2], err[1:-1], err[2:]
        floor = err.max(initial=-np.inf) - r * (sampled[0] / (1.0 - r) + s) - rounding
        peak = np.flatnonzero((mid >= left) & (mid >= right) & (mid >= floor))
        left, mid, right = left[peak], mid[peak], right[peak]
        j = first + 1 + peak
        bend = left - 2.0 * mid + right
        vertex = np.divide(0.5 * step * (left - right), bend, out=np.zeros(len(j)), where=bend < 0.0)
        rows = [(j * step + vertex, (j - 1) * step, (j + 1) * step, j)]
        if len(err) < 2 or err[0] >= err[1]:
            rows.append(([ends[0]], [ends[0]], [min((first + 1) * step, ends[1])], [first]))
        if len(err) < 2 or err[-1] >= err[-2]:
            rows.append(([ends[1]], [max((last - 1) * step, ends[0])], [ends[1]], [last]))
        start, lo, hi, near = map(np.concatenate, zip(*rows))
        sign = np.sign(samples[np.clip(near, 0, end)] - ref)
        t = np.concatenate([_refine(c, start, lo, hi, sign, s), j * step, ends])
        out.append(np.max(np.abs(_cosine_sums(t, c) - ref) - s * np.cos(t)))
    return np.array(out)


def _fixed_degree(family: str, target: Callable, degree: int, parity: Parity) -> ChebyshevPoly:
    """Parity-projected interpolant of target at a degree the caller gives,
    which must have the family's parity, scaled into the unit ball on
    [-1, 1]."""
    if degree % 2 != (parity is Parity.ODD):
        raise DomainError(f"{family} family degree must be {parity.value}")
    return interpolate(target, degree, parity)._in_unit_ball()


class _Certifier:
    """Certification test of a grown family's candidate p: its exact sup is
    at most 1 + 1e-12 and its error on each window (a, b, r) of x >= 0,
    max |p - r| on [a, b], at most budget, from one sweep (``_extrema``).
    By p's parity a window also stands for its mirror on x <= 0, with the
    reference -r (odd p) or r (even p).  With ``over_x`` the reference is
    r / x, its own mirror for odd p: for x > 0, |p - r/x| <= budget is
    |x p - r| - budget x <= 0, certified first on the degree-(d + 1) series
    x p (``chebmulx``), whose sup is held to p's bound too, as |x p| <= |p|.
    A certified p caches the sup of its own sweep, bit for bit that of a
    sweep of p alone.
    """

    def __init__(self, windows, budget: float, over_x: bool = False):
        windows = [w for w in windows if w[0] <= w[1]]  # an empty window holds no point
        self.windows = [(a, b, r, budget if over_x else 0.0) for a, b, r in windows]
        self.bounds = np.array([1.0 + 1e-12] + [0.0 if over_x else budget] * len(windows))
        self.over_x = over_x

    def __call__(self, p: ChebyshevPoly) -> bool:
        sweeps = [(p.coeffs, self.windows)]
        if self.over_x:
            sweeps = [(cheb.chebmulx(p.coeffs), self.windows), (p.coeffs, ())]
        for coeffs, windows in sweeps:
            bounds = self.bounds[: len(windows) + 1]
            extrema = _extrema(coeffs, windows, bounds)
            if np.any(extrema > bounds):
                return False
        vars(p)["_sup"] = float(extrema[0])  # the last sweep is p's own
        return True


def _grow_and_certify(target: Callable, parity: Parity, start_degree: int,
                      certifier: _Certifier) -> ChebyshevPoly:
    """Grow the degree of target's parity-projected interpolant by ~1.5x
    until, scaled into the unit ball by its exact sup (``_in_unit_ball``)
    and trimmed, it certifies, then cut that to the smallest certifying
    truncation (``_certified_trim``)."""
    degree = min(start_degree, DEGREE_CAP)
    while True:
        poly = interpolate(target, degree, parity)._in_unit_ball().trimmed()
        if certifier(poly):
            return _certified_trim(poly, certifier)
        if degree >= DEGREE_CAP:
            raise DegreeCapExceeded(f"certification failed at degree cap {DEGREE_CAP}")
        degree = min(DEGREE_CAP, max(degree + 2, int(degree * 1.5)))


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
    if not delta > 0.0:
        raise DomainError("transition width delta must be positive")


def sign_poly(epsilon: float, delta: float) -> ChebyshevPoly:
    """Odd polynomial within epsilon of sign(x) outside (-delta/2, delta/2).

    Constructed by Chebyshev interpolation of erf(k x) with the steepness
    k tied to (epsilon, delta); the degree is grown until both the unit
    bound and the accuracy window certify (``_Certifier``).
    """
    _validate_sign_args(epsilon, delta)
    k = erf_scale(epsilon, delta)
    certifier = _Certifier([(delta / 2, 1.0, 1.0)], epsilon)
    start = int(2 * math.ceil(0.8 * k) + 1)
    return _grow_and_certify(lambda x: _erf(k * x), Parity.ODD, max(start, 9), certifier)


def sign_poly_from_steepness(degree: int, k: float) -> ChebyshevPoly:
    """Fixed-degree odd interpolant of erf(k x), scaled into the unit ball.

    Family-style variant parameterized by (degree, steepness) rather than
    an accuracy budget.
    """
    return _fixed_degree("sign", lambda x: _erf(k * x), degree, Parity.ODD)


def _symmetric_step_poly(epsilon: float, delta: float, center: float) -> ChebyshevPoly:
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
        return norm * (-1.0 + epsilon / 4 + _erf(k * (center - x)) + _erf(k * (center + x)))

    certifier = _Certifier([(0.0, center - delta / 2, 1.0), (center + delta / 2, 1.0, -1.0)],
                           epsilon)
    start = int(2 * math.ceil(0.8 * k) + 2)
    return _grow_and_certify(target, Parity.EVEN, max(start, 10), certifier)


def eigenvalue_threshold_poly(epsilon: float, delta: float, threshold: float) -> ChebyshevPoly:
    """Even polynomial distinguishing singular values across a threshold.

    ``threshold`` is the rescaled cut lambda_th / alpha in (0, 1); the
    window (threshold - delta/2, threshold + delta/2) must stay inside (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError("threshold must lie in (0, 1)")
    if threshold - delta / 2 <= 0.0 or threshold + delta / 2 >= 1.0:
        raise DomainError("transition window overflows (0, 1)")
    return _symmetric_step_poly(epsilon, delta, threshold)


def phase_estimation_poly(epsilon: float, delta: float) -> ChebyshevPoly:
    """Even step polynomial at 1/sqrt(2), used to read out phase bits."""
    return _symmetric_step_poly(epsilon, delta, 1.0 / math.sqrt(2.0))


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
    k' = floor(r / 2).  Requires 0 < eps < 1/e and finite t > 0.
    """
    if not 0.0 < epsilon < 1.0 / math.e:
        raise DomainError("epsilon must lie in (0, 1/e)")
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    t_arg = 0.5 * math.e * t
    eps_arg = 1.25 * epsilon
    log_eps = math.log(eps_arg)

    def h(r):
        return r * (math.log(t_arg) - math.log(r)) - log_eps

    lo = t_arg * (1.0 + 1e-14)
    hi = max(3.0 * t_arg, t_arg + 10.0)
    while h(hi) >= 0.0:  # h falls to -inf (nan once t_arg overflows) as hi grows
        hi *= 2.0
    while True:  # bisection down to adjacent floats: h(lo) > 0 >= h(hi)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    r = lo if abs(h(lo)) <= abs(h(hi)) else hi
    # h(r) in log space, against four unit roundoffs (2^-53) of the sizes of
    # its terms: (t'/r)^r itself loses about r ulps at large r
    resid = abs(h(r))
    bound = 4.0 * 2.0**-53 * (r * (abs(math.log(t_arg)) + abs(math.log(r))) + abs(log_eps))
    if not (t_arg < r < math.inf and resid <= bound):  # r, t_arg overflow near the float max
        raise ConvergenceError(
            f"truncation root rejected (residual {resid:.3e} exceeds {bound:.3e})"
        )
    return TruncationSpec(t_arg, eps_arg, float(r), int(math.floor(0.5 * r)))


def _jacobi_anger_coeffs(t: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients 0..degree of cos(tx) + sin(tx).

    By Jacobi-Anger they are J_0(t), then 2(-1)^k J_2k(t) at the even
    orders (the cosine) and 2(-1)^k J_2k+1(t) at the odd ones (the sine).
    They come from the samples at n Chebyshev nodes (``_node_coeffs``).  The aliased terms J_m(t), m >= 2n - degree >= 2|t| + 82, are
    below (|t|/2)^m / m! < 1e-78.  `interpolate` is not used here: its
    Vandermonde recurrence loses accuracy at large t (2.7e-14 at t = 400,
    against 8.5e-15 for the samples themselves).
    """
    n = degree + math.ceil(abs(t)) + 41
    x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    return _node_coeffs(np.cos(t * x) + np.sin(t * x), degree)


def _jacobi_anger(t: float, epsilon: float, parity: Parity) -> ChebyshevPoly:
    """The parity's part of the Jacobi-Anger series (cos(xt) even, sin(xt)
    odd) through index 2k' or 2k' + 1, rescaled by 1/(1+eps) into the unit
    ball: the eps-accurate series becomes a 2*eps-accurate unit-bounded
    polynomial."""
    odd = parity is Parity.ODD
    if t == 0.0:  # cos(0) = 1, sin(0) = 0
        return ChebyshevPoly([0.0, 0.0] if odd else [1.0 / (1.0 + epsilon)], parity)
    degree = 2 * solve_truncation(t, epsilon).k_prime + odd
    _require_degree(degree)
    coeffs = _project_parity(_jacobi_anger_coeffs(t, degree), parity)
    return ChebyshevPoly(coeffs / (1.0 + epsilon), parity)


def jacobi_anger_cos(t: float, epsilon: float) -> ChebyshevPoly:
    """Even truncation of cos(x t), rescaled by 1/(1+eps) into the unit ball."""
    return _jacobi_anger(t, epsilon, Parity.EVEN)


def jacobi_anger_sin(t: float, epsilon: float) -> ChebyshevPoly:
    """Odd truncation of sin(x t), rescaled by 1/(1+eps)."""
    return _jacobi_anger(t, epsilon, Parity.ODD)


# ---------------------------------------------------------------------------
# Inverse family


def inverse_poly_params(epsilon: float, kappa: float) -> tuple:
    """(b, D) integer parameters of the truncated 1/x expansion."""
    if not 0.0 < epsilon < 0.5:
        raise DomainError("epsilon must lie in (0, 1/2)")
    if not 1.0 <= kappa < math.inf:
        raise DomainError("kappa must be >= 1 and finite")
    try:  # from about kappa = 1e154 the degree, far past the cap, overflows a float
        b = max(int(math.ceil(kappa**2 * math.log(kappa / epsilon))), 1)
        d_cap = int(math.ceil(math.sqrt(b * math.log(4.0 * b / epsilon))))
    except OverflowError:
        raise DegreeCapExceeded(
            f"kappa = {kappa}, epsilon = {epsilon} need a degree past the degree cap {DEGREE_CAP}"
        ) from None
    _require_degree(2 * d_cap + 1)
    return b, d_cap


def inverse_poly(epsilon: float, kappa: float) -> ChebyshevPoly:
    """Odd polynomial within 2*eps of 1/x on [-1,1] away from [-1/k, 1/k].

    Coefficient of T_{2j+1} is 4*(-1)^j * 2^{-2b} * sum_{i>j} C(2b, b+i),
    accumulated in log space.  The sup norm over [-1,1] is bounded by 4D.
    """
    b, d_cap = inverse_poly_params(epsilon, kappa)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in range(2 * b + 1)])
    i = np.arange(1, b + 1)
    log_terms = (log_factorial[2 * b] - log_factorial[b + i] - log_factorial[b - i]
                 - 2 * b * math.log(2.0))
    terms = np.exp(log_terms)
    tail = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])  # tail[j] = sum_{i>j}
    tail = np.pad(tail, (0, max(d_cap + 1 - len(tail), 0)))[: d_cap + 1]
    coeffs = np.zeros(2 * d_cap + 2)
    coeffs[1::2] = 4.0 * (-1.0) ** np.arange(d_cap + 1) * tail
    poly = ChebyshevPoly(coeffs, Parity.ODD)

    if poly._sup > 4.0 * d_cap + 1e-9:
        raise DegreeCapExceeded("inverse polynomial exceeded its 4D sup bound")
    # |p - 1/x| <= 2 eps on [1/kappa, 1] (and on its mirror, p being odd) is
    # |x p - 1| - 2 eps x <= 0 there, on the series x p
    miss = _extrema(cheb.chebmulx(coeffs), [(1.0 / kappa, 1.0, 1.0, 2.0 * epsilon)])[1]
    if miss > 0.0:
        raise DegreeCapExceeded(
            f"inverse polynomial missed the 2*eps accuracy bound (|x p - 1| - 2 eps x = {miss:.3e})"
        )
    return poly


def rect_poly(epsilon: float, kappa: float) -> ChebyshevPoly:
    """Even unit-bounded window polynomial: within [1 - eps, 1] on |x| >= 1/k
    and within [0, eps] on |x| <= 1/(2k).

    Interpolates eps/2 + (1 - eps)(1 - w(x)) for the even erf window
    w(x) = (erf(s(c - x)) + erf(s(c + x))) / 2 at c = 3/(4k), whose steepness
    s is the (eps/4, 1/(2k)) sign construction's, so that w fills the gap
    between the two regions; the certifier holds p within eps/2 of 1 - eps/2
    outside and of eps/2 inside.
    """
    if not kappa >= 1.0:
        raise DomainError("kappa must be >= 1")
    inner, outer = 1.0 / (2.0 * kappa), 1.0 / kappa
    _validate_sign_args(epsilon / 2.0, inner)
    s = erf_scale(epsilon / 4.0, inner)
    c = 3.0 / (4.0 * kappa)

    def target(x):
        window = 0.5 * (_erf(s * (c - x)) + _erf(s * (c + x)))
        return epsilon / 2 + (1.0 - epsilon) * (1.0 - window)

    certifier = _Certifier([(outer, 1.0, 1.0 - epsilon / 2), (0.0, inner, epsilon / 2)],
                           epsilon / 2)
    return _grow_and_certify(target, Parity.EVEN, max(int(2 * math.ceil(0.8 * s) + 2), 10),
                             certifier)


def _require_inversion(epsilon: float, kappa: float) -> float:
    """The inversion domain, finite kappa >= 1, 0 < epsilon < kappa / 2 and
    kappa / epsilon at most INVERSION_RATIO_MAX, checked before any work;
    returns the steepness s = kappa sqrt(ln(2 kappa / epsilon)) of the
    smooth target."""
    if kappa < 1.0 or not 0.0 < epsilon < 0.5 * kappa:
        raise DomainError("requires kappa >= 1 and 0 < epsilon / kappa < 1/2")
    if kappa == math.inf:  # s / (2 kappa) below would be inf / inf
        raise DomainError(f"kappa must be finite, got {kappa}")
    s = kappa * math.sqrt(math.log(2.0 * kappa / epsilon))
    if kappa / epsilon > INVERSION_RATIO_MAX:
        raise DomainError(
            f"kappa / epsilon = {kappa / epsilon:.6g} exceeds {INVERSION_RATIO_MAX:.6g}: the"
            f" smooth 1/(2*kappa*x) target has sup {s / (2.0 * kappa) * _INVERSION_PEAK:.6f} > 1"
        )
    return s


def matrix_inversion_poly(epsilon: float, kappa: float) -> ChebyshevPoly:
    """Odd, unit-bounded approximation of 1/(2*kappa*x) on |x| in [1/k, 1].

    Interpolates the odd entire function h(x) = (1 - exp(-(s x)^2)) /
    (2 kappa x), s = kappa * sqrt(ln(2 kappa / eps)), which is within
    eps/(4 kappa) of 1/(2 kappa x) on |x| >= 1/kappa, and grows the degree
    until the unit bound and eps/(2 kappa) accuracy certify on the closed
    window (``_Certifier``, on x p).
    sup h = (s / (2 kappa)) * _INVERSION_PEAK passes 1 once kappa / eps
    exceeds INVERSION_RATIO_MAX (about 9214).
    """
    s = _require_inversion(epsilon, kappa)

    def target(x):  # h(0) = 0, as -expm1(0) / inf
        return -np.expm1(-((s * x) ** 2)) / (2.0 * kappa * np.where(x == 0.0, np.inf, x))

    certifier = _Certifier([(1.0 / kappa, 1.0, 1.0 / (2.0 * kappa))], epsilon / (2.0 * kappa),
                           over_x=True)
    return _grow_and_certify(target, Parity.ODD, 2 * math.ceil(s) + 1, certifier)


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
    if not (isinstance(k, Integral) and k >= 1):
        raise DomainError(f"filter order k must be an integer >= 1, got {k}")
    if not 0.0 < delta_lambda < 1.0:
        raise DomainError("gap must lie in (0, 1)")
    _require_degree(2 * k)  # before the target is formed: T_k overflows past the cap
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


def _even_fit(target: Callable, degree: int) -> FitResult:
    """Even least-squares fit of target on a 2001-point grid, scaled into
    the unit ball, with its largest error on that grid."""
    if degree % 2 != 0 or degree < 2:
        raise DomainError("fit degree must be even and >= 2")
    _require_degree(degree)
    grid = np.linspace(-1.0, 1.0, 2001)
    design = cheb.chebvander(grid, degree)[:, ::2]
    vals = target(grid)
    sol, *_ = np.linalg.lstsq(design, vals, rcond=None)
    coeffs = np.zeros(degree + 1)
    coeffs[::2] = sol
    poly = ChebyshevPoly(coeffs, Parity.EVEN)._in_unit_ball()
    residual = float(np.max(np.abs(poly(grid) - vals)))
    return FitResult(poly, residual)


def gibbs_poly(beta: float, degree: int) -> FitResult:
    """Even least-squares fit of exp(-beta * |x|), with reported residual."""
    if not 0.0 < beta < math.inf:
        raise DomainError("beta must be positive and finite")
    return _even_fit(lambda x: np.exp(-beta * np.abs(x)), degree)


def relu_poly(delta: float, steepness: float, degree: int) -> FitResult:
    """Even softplus fit log(1 + exp(k(|x| - delta))) / k, residual reported."""
    if not 0.0 < steepness < math.inf:
        raise DomainError("steepness must be positive and finite")
    if not math.isfinite(delta):
        raise DomainError("delta must be finite")

    def target(x):
        return np.logaddexp(0.0, steepness * (np.abs(x) - delta)) / steepness

    return _even_fit(target, degree)
