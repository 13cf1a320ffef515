"""Phase-angle synthesis for target Chebyshev polynomials.

Given a real, parity-definite target bounded by 1 on [-1, 1], finds phases
whose canonical-convention response Re<+|U|+> reproduces the target.  The
phases are kept palindromic (real parity-definite targets always admit such
a solution), so a degree-d target has (d + 2) // 2 unknowns; requiring the
response to equal the target at as many positive Chebyshev nodes gives a
square system, solved by damped Newton's method from (pi/4, 0, ..., 0, pi/4)
(symmetric QSP; Dong, Lin, Ni & Wang, arXiv:2307.12468).  No restarts are
needed.  The response and its analytic Jacobian come from one sweep in the
signal's eigenframe, whose stored rows give every column.  The target's
bound is read from its exact sup on [-1, 1] (``ChebyshevPoly._sup``, which
a certified family's result keeps from its certification): a sup past
1 + tol is a domain error, and a target whose sup comes within half the
tolerance of 1 is solved scaled just inside the bound, so its residual is
about that half rather than the rounding level.  A solve is certified by
the exact sup of its error on [-1, 1] (``residual``): Re P is a Chebyshev
series, so one sweep at the nodes and one DCT give it exactly, and
``ChebyshevPoly._sup`` takes the sup.  So solving a certified result takes
one extremum sweep, the residual's.  Phase
solutions are not unique, so callers should compare response functions
rather than phase lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, ParityError
from .poly_approx import ChebyshevPoly, Parity, _node_coeffs, _require_degree
from .qsp_core import (
    _PLUS,
    CANONICAL,
    PhaseSequence,
    SignalKind,
    _eigen_sweep,
    _frame_mixers,
    _mixers,
    _node_phases,
    _sweep_diagonal,
)

# node-residual 2-norm that rounding leaves, per factor of the (d+1)-fold
# product (the residual of converged phases levels off at 0.3 to 0.5 times
# this), the step fractions Newton tries in turn, and its step budget (the
# certified targets up to degree 512 take at most 58 steps at residual_tol
# 1e-6 or above; phase_estimation_poly(1e-4, 0.1), degree 342, takes 57 at
# 1e-6 and stops unconverged after 100 at 1e-8)
ROUNDING = 2 * np.finfo(float).eps
DAMPINGS = 0.5 ** np.arange(11)
MAX_STEPS = 100


@dataclass(frozen=True)
class SolverOptions:
    """A solve succeeds once its ``residual`` is at most ``residual_tol``."""

    residual_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.residual_tol < math.inf:  # a NaN fails too
            raise DomainError("residual_tol must be positive and finite")


@dataclass(frozen=True)
class FixedPointParams:
    """Parameters of the closed-form fixed-point amplification family."""

    d: int
    delta: float

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("d must be >= 1")
        _require_degree(2 * self.d - 1)  # 2d phases, checked before any is formed
        if not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")

    @property
    def L(self) -> int:
        return 2 * self.d + 1

    @property
    def gamma(self) -> float:
        # 1/gamma = T_{1/L}(1/delta), the fractional-order Chebyshev value
        return 1.0 / math.cosh(math.acosh(1.0 / self.delta) / self.L)


# ---------------------------------------------------------------------------
# Response and Jacobian, vectorized over signal nodes


def _swept(phases: np.ndarray, diag: np.ndarray, rows: np.ndarray | None = None):
    """Re<+|U|+> at each node, and a function that returns d/dphi_k there
    (``_jacobian``).

    U = S(phi_0) W S(phi_1) ... W S(phi_d) in the canonical Wx convention,
    swept in the signal's eigenframe, where <+|U|+> = <0|R_0 D R_1 ... R_d|0>
    (``qsp_core._eigen_sweep``); ``diag`` is D at the nodes
    (``_wx_diagonal``), which a solve forms once.  The sweep keeps its rows
    in ``rows``, a (d + 1, 2, m) buffer the Newton loop reuses so that its
    pages are not faulted in again on every call, and the Jacobian is
    computed from them on demand: it is valid until ``rows`` is swept
    again, so a caller pays for the Jacobian only of the sweeps it keeps.
    """
    mix = _mixers(phases)
    if rows is None:
        rows = np.empty((len(phases),) + diag.shape, dtype=complex)
    end = _eigen_sweep(mix, diag, rows=rows)
    return end[0].real, lambda: _jacobian(phases, mix, diag, rows, end)


def _wx_diagonal(nodes: np.ndarray) -> np.ndarray:
    """The sweep diagonal of the canonical signal at the values ``nodes``."""
    return _sweep_diagonal(_node_phases(nodes, SignalKind.WX))


def _positive_nodes(degree: int) -> np.ndarray:
    """The (degree + 2) // 2 positive nodes cos((2j - 1) pi / 4n), j = 1..n,
    of the 2n first-kind Chebyshev nodes, n = (degree + 2) // 2, in
    decreasing order: they fix a degree-d series of d's parity."""
    half = (degree + 2) // 2
    return np.cos((2 * np.arange(1, half + 1) - 1) * np.pi / (4 * half))


def _jacobian(phases, mix, diag, rows, end) -> np.ndarray:
    """d/dphi_k of the response, (nodes, d + 1), from the rows and the final
    row ``end`` of its sweep; ``rows`` is overwritten.

    dR_k/dphi_k = R_k iX, so with c_k the row after R_k and b_k the column
    D R_{k+1} ... R_d|0>, the derivative is Re(i c_k X b_k) =
    -Im(c_k1 b_k0 + c_k0 b_k1).  For k < d, c_k is the stored row before
    R_{k+1} times D^-1 = diag(conj(e), e); c_d is the final row and
    b_d = |0>.  R and D are symmetric, so b_k is the row before R_{d-k} of
    the reversed sweep; for a palindromic list that is the sweep's own, and
    c_k0 b_k1 is c_{d-1-k}1 b_{d-1-k}0 reversed.  ``diag`` holds e and
    conj(e).
    """
    e, conj_e = diag
    # rows[1:, 1] becomes c_k1 b_k0 / e and rows[1:, 0] c_k0 b_k1, in place
    top, bot = rows[1:, 1], rows[1:, 0]
    if np.array_equal(phases, phases[::-1]):
        np.multiply(top, rows[:0:-1, 0], out=top)
        np.multiply(top[::-1], conj_e, out=bot)
    else:
        suffix = np.empty_like(rows)
        _eigen_sweep(mix[::-1], diag, rows=suffix)
        top *= suffix[:0:-1, 0]
        bot *= suffix[:0:-1, 1]
        bot *= conj_e
    top *= e
    top += bot
    jac = np.empty((len(phases), rows.shape[2]))
    np.negative(top.imag, out=jac[:-1])
    np.negative(end[1].imag, out=jac[-1])
    return jac.T


def _expand_symmetric(sym: np.ndarray, degree: int) -> np.ndarray:
    """Palindromic phase vector phi_k = phi_{d-k} from its unique half."""
    return np.concatenate([sym, sym[: degree + 1 - len(sym)][::-1]])


def _symmetric_sweep(sym: np.ndarray, degree: int, diag: np.ndarray,
                     rows: np.ndarray | None = None):
    """Response of the palindromic expansion of ``sym``, and a function
    (as in ``_swept``) that returns its Jacobian in the half-vector: the
    chain rule of the expansion mirror-sums columns."""
    g, jacobian = _swept(_expand_symmetric(sym, degree), diag, rows)
    half = len(sym)

    def half_jacobian():
        jac = jacobian()
        out = jac[:, :half].copy()
        out[:, : degree + 1 - half] += jac[:, half:][:, ::-1]
        return out

    return g, half_jacobian


def _newton(target: ChebyshevPoly):
    """Damped Newton's method on the square symmetric system from
    (pi/4, 0, ..., 0), one equation per positive Chebyshev node.

    Each step is halved until it shrinks the 2-norm of the node residual
    (the Newton direction always descends it) by more than rounding can.
    Every trial is one sweep; the Jacobian is computed from the rows of the
    accepted one, and only when another step follows.
    Stops after ``MAX_STEPS``, once the residual is down to rounding, or
    when no damping down to 2^-10 shrinks it; returns the palindromic phases
    and the number of steps taken.
    """
    degree = target.degree
    half = (degree + 2) // 2
    nodes = _positive_nodes(degree)
    targets = target(nodes)
    diag = _wx_diagonal(nodes)
    rounding = ROUNDING * (degree + 1)
    rows = np.empty((degree + 1, 2, half), dtype=complex)
    sym = np.zeros(half)
    sym[0] = np.pi / 4
    g, jacobian = _symmetric_sweep(sym, degree, diag, rows)
    resid = g - targets
    size = np.linalg.norm(resid)
    steps = 0
    while steps < MAX_STEPS and size > rounding:
        try:
            step = np.linalg.solve(jacobian(), resid)
        except np.linalg.LinAlgError:
            break
        steps += 1
        for damping in DAMPINGS:
            trial = sym - damping * step
            g, trial_jacobian = _symmetric_sweep(trial, degree, diag, rows)
            trial_size = np.linalg.norm(g - targets)
            if trial_size < size - rounding:
                sym, jacobian, resid, size = trial, trial_jacobian, g - targets, trial_size
                break
        else:
            break
    return _expand_symmetric(sym, degree), steps


def _nudged(target: ChebyshevPoly, residual_tol: float) -> ChebyshevPoly:
    """The target Newton solves: the target itself, or, when its sup comes
    within eta of 1, its copy scaled to sup 1 - eta.

    At |f| = 1 the Newton root is singular and convergence only linear
    (Dong, Lin, Ni & Wang, arXiv:2307.12468), so a target touching the
    bound is solved at a small distance eta from it, which its residual
    against the raw target then carries.  eta = min(tol, 1 + tol - sup) / 2
    leaves half the tolerance for Newton, and less headroom when the sup is
    already above 1.  The sup is the target's exact one on [-1, 1],
    ``ChebyshevPoly._sup``, the cached value the builders' unit rescale and
    certification read, so a certified target takes no further sweep.  No
    QSP response (always bounded by 1) comes within residual_tol of a target
    whose sup passes 1 + residual_tol, so such a target is a domain error.
    """
    if target.parity is Parity.NONE:
        raise ParityError("phase synthesis requires a parity-definite target")
    sup = target._sup
    if sup > 1.0 + residual_tol:
        raise DomainError(
            f"target sup norm {sup:.9f} exceeds 1 by {sup - 1.0:.3e}, more than "
            f"residual_tol {residual_tol:.1e}"
        )
    eta = 0.5 * min(residual_tol, 1.0 + residual_tol - sup)
    if sup <= 1.0 - eta:
        return target
    return target.scaled((1.0 - eta) / sup)


def solve_phases(target: ChebyshevPoly, options: SolverOptions = SolverOptions()) -> PhaseSequence:
    """Phases whose canonical response matches the target polynomial.

    Deterministic: one Newton run on the (possibly nudged) target, whose
    phases succeed when they reach ``residual_tol`` (the exact sup of the
    response error against the raw target on [-1, 1], ``residual``).
    Raises NoConvergence, naming that residual and the Newton steps spent,
    when they do not, and, before any Newton step, DegreeCapExceeded on a
    target past the degree cap and DomainError on one whose exact sup
    passes 1 + residual_tol (``_nudged``).
    """
    _require_degree(target.degree)
    phases, steps = _newton(_nudged(target, options.residual_tol))
    seq = PhaseSequence(tuple(phases), CANONICAL)
    resid = residual(seq, target)  # certification is against the raw target
    if resid > options.residual_tol:
        raise NoConvergence(
            f"best residual {resid:.3e} above tolerance "
            f"{options.residual_tol:.3e} after {steps} Newton iterations"
        )
    return seq


def residual(seq: PhaseSequence, target: ChebyshevPoly) -> float:
    """max |Re P - f| on [-1, 1], exact to rounding, where P = <0|U|0> is
    the polynomial of seq's unitary in the Wx frame (the canonical
    response's real part) and f the target.

    For real phases of degree d, Re P is a degree-d Chebyshev series of d's
    parity (GSLW'19, arXiv:1806.01838), so its values at the (d + 2) // 2
    positive first-kind nodes, from one sweep (P = <+|M|+> of the frame
    product M, as in ``qsp_core.pq_from_sequence``), fix it.  One DCT of
    those values, mirrored by parity (``poly_approx._node_coeffs``), gives
    its coefficients, and the difference series' exact sup
    (``ChebyshevPoly._sup``) is the residual.
    """
    d = seq.degree
    nodes = _positive_nodes(d)
    top, bot = _eigen_sweep(_frame_mixers(seq), _wx_diagonal(nodes), _PLUS)
    half_values = 0.5 * (top.real + bot.real)
    # Re P at all the nodes cos((j + 1/2) pi / n), j = 0..n-1, by parity
    values = np.concatenate([half_values, (-1.0) ** d * half_values[::-1]])
    re_p = _node_coeffs(values, d)
    re_p[1 - d % 2::2] = 0.0
    error = np.zeros(max(d + 1, len(target.coeffs)))
    error[: d + 1] = re_p
    error[: len(target.coeffs)] -= target.coeffs
    return ChebyshevPoly(error)._sup


def fixed_point_phases(params: FixedPointParams) -> PhaseSequence:
    """Closed-form 2d-phase sequence for oblivious fixed-point amplification.

    alpha_j = -acot(sqrt(1 - gamma^2) * tan(2*pi*j / L)) with L = 2d + 1;
    the even slots walk the alphas down from j = d and the odd slots walk
    them up from j = 1, producing a palindromic list.
    """
    d, L, gamma = params.d, params.L, params.gamma
    root = math.sqrt(1.0 - gamma * gamma)

    def alpha(j: int) -> float:
        t = root * math.tan(2.0 * math.pi * j / L)
        # acot into (0, pi): pi/2 - atan maps sign changes continuously
        return -(0.5 * math.pi - math.atan2(t, 1.0))

    phases = np.empty(2 * d)
    for k in range(d):
        phases[2 * k] = alpha(d - k)
        phases[2 * k + 1] = alpha(k + 1)
    return PhaseSequence(tuple(phases), CANONICAL)
