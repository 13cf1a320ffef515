"""Target-function polynomial families in the Chebyshev basis.

Every constructor returns a parity-tagged polynomial that has been checked
on a dense certification grid against the bounds stated in its contract
(boundedness on [-1, 1] and approximation accuracy outside the transition
windows).  Certification is the contract: every result is re-checked rather
than trusted by construction.  Polynomials are evaluated by ``_chebval``,
which sums a parity-definite series at half its length, in one Reinsch
loop over every point, each point about its own end of [-1, 1].

A polynomial's exact sup on [-1, 1] is taken once per ``ChebyshevPoly``
(``_sup``) by one extremum sweep (``_exact_sup``): an FFT samples p(cos t)
on a grid fine enough that, by Bernstein's inequality, only a few sampled
maxima can sit beside the sup, and each is refined by Newton's method and
summed in the angle t (``_cosine_sums``).  It takes no eigensolve.  Every
unit-ball rescale reads it through ``_in_unit_ball`` (the grown families'
interpolants, the fixed-degree families and the Gibbs/ReLU fits), and so
do the certification of the grown families and the phase solver's bound
check (``phase_solver._nudged``), which for a grown family reads the sup
its certification already took.

The grown families (sign, both steps, inversion, rect) pay one grid pass
for each candidate they certify in full; a certified polynomial keeps its
grid values, so its ``sup_norm()`` costs no further pass, and it has an
exact sup of at most 1 + 1e-12.  Two rules reject a candidate before its
full pass (``_Certifier``), and each rejects only what the full test
rejects.  Both read the screen, every 16th grid point, where values are
bit-equal to the full grid's.  The trim's screen tests its probes there,
so failing there is failing on the grid.  The undershoot rule skips a
degree, before the unit rescale and its sweep, when at a screened point
with |r| > budget + 1e-9 the unscaled interpolant p has sign(r) p < |r| -
budget - 1e-9: the rescale only shrinks p, so the certified candidate
would miss r by more than the budget.  The 1e-9 covers the coefficients
that trimming drops (under 2.6e-12) and the rounding of both evaluations
(1e-14 sum |c_k| each, under 5e-14 for these families).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
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

CERT_GRID_SIZE = 4096
# the trim's screen reads every SCREEN_STRIDE-th certification grid point;
# the grow loop skips a degree whose interpolant undershoots its reference by
# UNDERSHOOT_MARGIN more than the budget (see _Certifier)
SCREEN_STRIDE = 16
UNDERSHOOT_MARGIN = 1e-9
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

    Its grid values and its exact sup are cached on the object, each taken
    at its first read: ``sup_norm()`` is the certification grid's maximum,
    and ``_sup`` the maximum on all of [-1, 1], from one extremum sweep
    (``_exact_sup``).  ``_in_unit_ball``, the one unit rescale, and the
    solver's bound check read ``_sup``.
    """

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
        return _chebval(x, self.coeffs)

    def trimmed(self) -> "ChebyshevPoly":
        return ChebyshevPoly(self.coeffs[: self.degree + 1], self.parity)

    def scaled(self, factor: float) -> "ChebyshevPoly":
        return ChebyshevPoly(self.coeffs * factor, self.parity)

    def sup_norm(self) -> float:
        """max |p| on the certification grid."""
        return float(np.max(np.abs(self._grid_values)))

    @functools.cached_property
    def _grid_values(self) -> np.ndarray:
        """p on the certification grid, read-only: evaluated once, by the
        certification that accepts p or by the first read of a sup."""
        values = _chebval(cert_grid(), self.coeffs)
        values.setflags(write=False)
        return values

    @functools.cached_property
    def _sup(self) -> float:
        """max |p| on [-1, 1], taken once by ``_exact_sup``; it reads no
        grid, so it is not bounded by ``sup_norm()`` between grid points."""
        return _exact_sup(self.coeffs)

    def _in_unit_ball(self) -> "ChebyshevPoly":
        """p itself, or p / (s (1 + 1e-12)) when its exact sup s passes 1."""
        s = self._sup
        return self if s <= 1.0 else ChebyshevPoly(self.coeffs / (s * (1.0 + 1e-12)), self.parity)


def cert_grid() -> np.ndarray:
    return np.linspace(-1.0, 1.0, CERT_GRID_SIZE)


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

    Coefficient rows (k, n) of one parity give k rows of values in one
    pass, each bit-equal to its row's own: a row zero-padded at the top
    keeps d = b = 0 up to its top coefficient, the state its unpadded form
    starts from.
    """
    c = np.asarray(coeffs)
    even = not np.any(c[..., 1::2])
    if not even and np.any(c[..., 0::2]):
        return cheb.chebval(x, c.T)
    a = c[..., 0::2] if even else c[..., 1::2]
    if a.ndim > 1:  # one coefficient of every row at a time, a column against mu
        a = a.T[..., None]
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    inner = np.abs(xs) < math.sqrt(0.5)
    end = np.where(inner, -1.0, 1.0)
    mu = np.where(inner, 4.0 * xs * xs, -4.0 * (1.0 - xs) * (1.0 + xs))
    shape = np.broadcast_shapes(a.shape[1:], mu.shape)
    b = np.zeros(shape)  # b_{k+1}
    d = np.empty(shape)  # d_k
    d[...] = a[-1]
    t = np.empty(shape)
    for ak in a[-2::-1]:
        b *= end
        b += d
        d *= end
        np.multiply(mu, b, out=t)
        d += t
        d += ak
    # b_0 - y b_1 = d_0 - (mu / 2) b_1 and b_0 - b_1 = d_0 + (e - 1) b_1
    out = d - 0.5 * mu * b if even else xs * (d + (end - 1.0) * b)
    return out.reshape(c.shape[:-1] + x.shape)[()]


def _project_parity(coeffs: np.ndarray, parity: Parity) -> np.ndarray:
    out = coeffs.copy()
    if parity is Parity.EVEN:
        out[1::2] = 0.0
    elif parity is Parity.ODD:
        out[0::2] = 0.0
    return out


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
    that still certifies, by binary search on the truncation degree; poly
    certifies.  Returns the certified object itself, whose grid values and
    exact sup the certification cached.

    The probes the search makes while every probe fails are screened
    together, in one pass of ``_chebval`` over their coefficient rows,
    zero-padded to poly's length, on every SCREEN_STRIDE-th grid point
    (``_Certifier.screen``).  Only a probe that passes the screen is
    certified in full; once one certifies, the search goes on from the
    narrowed bracket with a fresh screen.
    """
    candidates = range(poly.degree % 2, poly.degree + 1, 2)
    lo, hi = 0, len(candidates) - 1  # candidates[hi] certifies, as best
    best = poly
    sub_grid = cert_grid()[::SCREEN_STRIDE]
    while lo < hi:
        path = [(lo + hi) // 2]
        while path[-1] + 1 < hi:
            path.append((path[-1] + 1 + hi) // 2)
        rows = np.zeros((len(path), len(poly.coeffs)))
        for row, mid in zip(rows, path):
            row[: candidates[mid] + 1] = poly.coeffs[: candidates[mid] + 1]
        screened = certifier.screen(_chebval(sub_grid, rows))
        for mid, hopeful in zip(path, screened):
            if hopeful:
                probe = ChebyshevPoly(poly.coeffs[: candidates[mid] + 1], poly.parity)
                if certifier(probe):
                    hi, best = mid, probe
                    break
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


def _exact_sup(coeffs: np.ndarray) -> float:
    """max |p| on [-1, 1] of p = sum_k coeffs[k] T_k, to rounding.

    In x = cos t, p is the cosine series q(t) = sum_k c_k cos(k t) of degree
    d.  One rfft samples q at t_j = pi j / M, M a power of two with M >= 64
    (d + 1): q(t_j) is the real part of the transform of c zero-padded to
    2M.  An odd or even p has |p(-x)| = |p(x)|, so only t <= pi/2, j <=
    M/2, is searched, from a transform of length M: even p is sum_n c_2n
    cos(2n t), the real part of the transform of (c_0, c_2, ...), and odd p
    is Re(e^{i t} conj(F)) for the transform F of (c_1, c_3, ...).

    The top of |q| is within pi / 2M of a sample, and by Bernstein's
    inequality, |q''| <= d^2 max |q|, that sample is at most r max |q| below
    it, r = (d pi / 2M)^2 / 2 < 3.1e-4.  So only a sampled local maximum of
    |q| at least (1 - r) times the top sample, less the FFT's rounding, can
    sit beside the sup.  Each is refined by safeguarded Newton on q'(t) = 0
    inside its bracket [t_{j-1}, t_{j+1}], from the vertex of the parabola
    through its three samples (a step that leaves the bracket, or meets q''
    of the wrong sign, bisects it instead), iterated until every step is
    below 2^-30 / d: the point is then within that step of the maximum, so
    |q| there is within (d 2^-30 / d)^2 max |q| / 2 = 2^-61 max |q| of it.
    The sup is the largest |q| at the refined points, at their samples and
    at both ends (``_cosine_sums``).
    """
    c = np.asarray(coeffs, dtype=float)
    nonzero = np.flatnonzero(c)
    d = int(nonzero[-1]) if len(nonzero) else 0
    c = c[: d + 1]
    if d == 0:
        return abs(float(c[0]))
    m = 1 << (64 * (d + 1) - 1).bit_length()
    if not np.any(c[1::2]):
        samples = np.fft.rfft(c[::2], m).real
    elif not np.any(c[::2]):
        samples = (np.fft.rfft(c[1::2], m).conj() * _half_turns(m)).real
    else:
        samples = np.fft.rfft(c, 2 * m).real
    size = np.abs(samples)  # |q(t_j)|, j = 0..end
    end = len(size) - 1
    r = 0.5 * (d * math.pi / (2 * m)) ** 2
    j = np.flatnonzero(size >= (1.0 - r) * size.max() - 1e-12 * np.sum(np.abs(c)))
    # neighbours by reflection: q is even about t = 0 and about t = pi, and
    # |q| about t = pi/2 when p has a parity
    left = size[np.abs(j - 1)]
    right = size[end - np.abs(end - j - 1)]
    j, left, right = (v[(size[j] >= left) & (size[j] >= right)] for v in (j, left, right))
    step = math.pi / m
    start = j * step
    sign = np.sign(samples[j])
    lo = np.maximum(start - step, 0.0)
    hi = np.minimum(start + step, end * step)
    bend = left - 2.0 * size[j] + right  # <= 0 at a sampled maximum
    vertex = np.divide(0.5 * step * (left - right), bend, out=np.zeros(len(j)), where=bend < 0.0)
    t = np.clip(start + vertex, lo, hi)
    k = np.arange(d + 1)
    dq, ddq = -k * c, -k * k * c  # q' = sum dq_k sin(k t), q'' = sum ddq_k cos(k t)
    for _ in range(100):
        waves = np.exp(1j * np.outer(t, k))
        slope = sign * (waves.imag @ dq)
        curve = sign * (waves.real @ ddq)
        lo = np.where(slope > 0.0, t, lo)
        hi = np.where(slope < 0.0, t, hi)
        newton = t - np.divide(slope, curve, out=np.full(len(t), np.inf), where=curve < 0.0)
        nxt = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.all(np.abs(nxt - t) <= 2.0**-30 / d)
        t = nxt
        if done:
            break
    return float(np.max(np.abs(_cosine_sums(np.concatenate([t, start, [0.0, math.pi]]), c))))


def _fixed_degree(family: str, target: Callable, degree: int, parity: Parity) -> ChebyshevPoly:
    """Parity-projected interpolant of target at a degree the caller gives,
    which must have the family's parity, scaled into the unit ball on
    [-1, 1]."""
    if degree % 2 != (parity is Parity.ODD):
        raise DomainError(f"{family} family degree must be {parity.value}")
    return interpolate(target, degree, parity)._in_unit_ball()


class _Certifier:
    """Certification test: p certifies when |p| <= 1 + 1e-12 and |p - r| <=
    budget on the dense grid's points where keep holds, r the reference
    there (on p's cached grid values), and p's exact sup is at most 1 +
    1e-12 (``__call__``).  The sup is read only once the grid passes; the
    result of a grown build is the last object read, so the phase solver's
    bound check reads it from the cache.

    Two cheaper tests reject only candidates that the full test rejects.
    Both read the screen, every SCREEN_STRIDE-th grid point, where
    ``_chebval`` gives a point the same value bit for bit whatever other
    points it is evaluated with and whether the series is zero-padded at
    the top.

    * ``screen`` is the full grid test there, so failing there is failing
      on the grid.
    * The undershoot rule, ``undershoots``, reads the screen's values of an
      unscaled interpolant p.  The unit rescale makes it p' = p / s with
      s = max(1, sup |p|), which only moves p towards 0: at a checked point
      with |r| > budget, sign(r) p' <= max(sign(r) p, 0), so where
      sign(r) p < |r| - budget, |p' - r| > budget too.  The rule asks this
      with UNDERSHOOT_MARGIN = 1e-9 to spare, for the difference between
      the values it reads and those the full test reads: the top
      coefficients that trimming drops from p' (fewer than 257, each at
      most PARITY_TOL = 1e-14: under 2.6e-12) and the rounding of the two
      evaluations, each within 1e-14 sum |c_k| (the evaluator's tested
      accuracy up to degree 512).  As |c_k| <= 2 sup |p|, that is at most
      5.2e-12 (s + 1) + 2.6e-12, inside the margin while s < 190; the
      families' interpolants have s < 1.13 and sum |c_k| < 4.5.
    """

    def __init__(self, keep: Callable, reference: Callable, budget: float):
        grid = cert_grid()
        # the checked points and r there, on the grid and on the screen
        self.checked = np.flatnonzero(keep(grid))
        self.ref = ref = reference(grid[self.checked])
        on_sub = self.checked % SCREEN_STRIDE == 0
        sub_ref = ref[on_sub]
        self._sub = self.checked[on_sub] // SCREEN_STRIDE, sub_ref
        self.budget = budget
        self._sign = np.sign(sub_ref)
        far = np.abs(sub_ref) > budget + UNDERSHOOT_MARGIN
        self._floor = np.where(far, np.abs(sub_ref) - budget - UNDERSHOOT_MARGIN, -np.inf)

    def __call__(self, p: ChebyshevPoly) -> bool:
        return bool(self._passes(p._grid_values, self.checked, self.ref)) and p._sup <= 1.0 + 1e-12

    def screen(self, values: np.ndarray) -> np.ndarray:
        """The grid test on the screen, for each row of values there."""
        return self._passes(values, *self._sub)

    def _passes(self, values, checked, ref):
        err = np.abs(np.take(values, checked, axis=-1) - ref)
        return (np.abs(values).max(-1) <= 1.0 + 1e-12) & (err.max(-1, initial=0.0) <= self.budget)

    def undershoots(self, values: np.ndarray) -> bool:
        """Whether an unscaled interpolant with these values on the screen
        fails after any unit rescale (see the class docstring)."""
        return bool(np.any(self._sign * values[self._sub[0]] < self._floor))


def _grow_and_certify(target: Callable, parity: Parity, start_degree: int,
                      certifier: _Certifier) -> ChebyshevPoly:
    """Grow the degree of target's parity-projected interpolant by ~1.5x
    until, scaled into the unit ball and trimmed, it certifies, then cut
    that to the smallest certifying truncation (``_certified_trim``).

    Each degree's unscaled interpolant p is evaluated on the screen only.
    The undershoot rule (``_Certifier.undershoots``) skips a degree there,
    with no rescale and so no sweep for its sup, when at a screened point
    with |r| > budget + 1e-9, sign(r) p < |r| - budget - 1e-9.  It is exact:
    the rescale only shrinks p, so the candidate would miss r by more than
    the budget, and the 1e-9 covers the coefficients trimming drops and the
    rounding of both evaluations, under 1.4e-11 for the families'
    interpolants.  Otherwise p's exact sup gives the rescale
    (``_in_unit_ball``), and the rescaled candidate is certified, its one
    grid pass.  The trim's screen rejects a probe only when it fails on a
    subset of the grid (``_certified_trim``).
    """
    degree = min(start_degree, DEGREE_CAP)
    sub_grid = cert_grid()[::SCREEN_STRIDE]
    while True:
        interpolant = interpolate(target, degree, parity)
        if not certifier.undershoots(_chebval(sub_grid, interpolant.coeffs)):
            poly = interpolant._in_unit_ball().trimmed()
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
    bound and the accuracy window certify on the dense grid.
    """
    _validate_sign_args(epsilon, delta)
    k = erf_scale(epsilon, delta)
    certifier = _Certifier(lambda g: np.abs(g) > delta / 2, np.sign, epsilon)
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

    certifier = _Certifier(lambda g: (g >= 0.0) & (np.abs(g - center) > delta / 2),
                           lambda x: np.sign(center - x), epsilon)
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
    They come from a DCT-II, through one FFT, of the samples at n Chebyshev
    nodes.  The aliased terms J_m(t), m >= 2n - degree >= 2|t| + 82, are
    below (|t|/2)^m / m! < 1e-78.  `interpolate` is not used here: its
    Vandermonde recurrence loses accuracy at large t (2.7e-14 at t = 400,
    against 8.5e-15 for the samples themselves).
    """
    n = degree + math.ceil(abs(t)) + 41
    x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    y = np.cos(t * x) + np.sin(t * x)
    shift = np.exp(-0.5j * np.pi * np.arange(degree + 1) / n)
    coeffs = (np.fft.fft(np.concatenate([y, y[::-1]]))[: degree + 1] * shift).real / n
    coeffs[0] /= 2.0
    return coeffs


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
    if d_cap >= len(tail):
        tail = np.pad(tail, (0, d_cap + 1 - len(tail)))
    coeffs = np.zeros(2 * d_cap + 2)
    for j in range(0, d_cap + 1):
        coeffs[2 * j + 1] = 4.0 * (-1) ** j * tail[j]
    poly = ChebyshevPoly(coeffs, Parity.ODD)

    if poly.sup_norm() > 4.0 * d_cap + 1e-9:
        raise DegreeCapExceeded("inverse polynomial exceeded its 4D sup bound")
    grid = cert_grid()
    outside = np.abs(grid) > 1.0 / kappa
    if np.any(outside):
        err = np.max(np.abs(poly._grid_values[outside] - 1.0 / grid[outside]))
        if err > 2.0 * epsilon:
            raise DegreeCapExceeded(
                f"inverse polynomial missed the 2*eps accuracy bound ({err:.3e})"
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

    certifier = _Certifier(lambda g: (np.abs(g) >= outer) | (np.abs(g) <= inner),
                           lambda x: np.where(np.abs(x) >= outer, 1.0 - epsilon / 2, epsilon / 2),
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
    until the unit bound and eps/(2 kappa) accuracy certify on the grid.
    sup h = (s / (2 kappa)) * _INVERSION_PEAK passes 1 once kappa / eps
    exceeds INVERSION_RATIO_MAX (about 9214).
    """
    s = _require_inversion(epsilon, kappa)

    def target(x):  # h(0) = 0, as -expm1(0) / inf
        return -np.expm1(-((s * x) ** 2)) / (2.0 * kappa * np.where(x == 0.0, np.inf, x))

    certifier = _Certifier(lambda g: np.abs(g) > 1.0 / kappa,
                           lambda x: 1.0 / (2.0 * kappa * x), epsilon / (2.0 * kappa))
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
