"""Named polynomial / phase families reachable from the CLI.

Each family maps a small argument dict to either a target polynomial (then
synthesized by the phase solver) or, for the closed-form amplification
family, directly to phases.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .phase_solver import FixedPointParams, SolverOptions, fixed_point_phases, solve_phases
from .poly_approx import (
    ChebyshevPoly,
    Parity,
    _erf,
    _unit_interpolant,
    eigenstate_filter_poly,
    gibbs_poly,
    jacobi_anger_cos,
    jacobi_anger_sin,
    matrix_inversion_poly,
    relu_poly,
    sign_poly_from_steepness,
)
from .qsp_core import PhaseSequence


def _thresh_target(d: int, k: float) -> ChebyshevPoly:
    """Even step located at |x| = 1/2: (erf(k(x+1/2)) - erf(k(x-1/2))) / 2."""
    if d % 2 != 0:
        raise DomainError("threshold family degree must be even")
    return _unit_interpolant(
        lambda x: 0.5 * (_erf(k * (x + 0.5)) - _erf(k * (x - 0.5))), d, Parity.EVEN
    )


def _phase_target(d: int, k: float) -> ChebyshevPoly:
    """Even symmetric step at 1/sqrt(2), the phase-readout target."""
    if d % 2 != 0:
        raise DomainError("phase family degree must be even")
    c = 1.0 / math.sqrt(2.0)
    return _unit_interpolant(
        lambda x: 0.5 * (_erf(k * (c - x)) + _erf(k * (c + x)) - 1.0), d, Parity.EVEN
    )


# name -> builder of the target polynomial from the family's argument dict
_TARGET_FAMILIES = {
    # odd erf-based sign approximation; args d (odd degree), k (steepness)
    "poly_sign": lambda a: sign_poly_from_steepness(int(a.get("d", 19)), a.get("k", 10.0)),
    # odd 1/(2*kappa*x) approximation; args kappa, eps
    "invert": lambda a: matrix_inversion_poly(a.get("eps", 0.3), a.get("kappa", 3.0)),
    # Jacobi-Anger cos/sin truncation; args t, eps, part=cos|sin
    "hamsim": lambda a: (
        jacobi_anger_cos(a.get("t", 5.0), a.get("eps", 0.1))
        if a.get("part", "cos") == "cos"
        else jacobi_anger_sin(a.get("t", 5.0), a.get("eps", 0.1))
    ),
    # even step at |x|=1/2; args d (even degree), k (steepness)
    "poly_thresh": lambda a: _thresh_target(int(a.get("d", 18)), a.get("k", 10.0)),
    # even symmetric step at 1/sqrt(2); args d (even degree), k
    "poly_phase": lambda a: _phase_target(int(a.get("d", 18)), a.get("k", 10.0)),
    # eigenstate filter of degree d = 2k; args d (even degree), dlam (gap)
    "efilter": lambda a: eigenstate_filter_poly(int(a.get("d", 30)) // 2, a.get("dlam", 0.3)),
    # even fit of exp(-beta|x|); args d (even degree), beta
    "gibbs": lambda a: gibbs_poly(a.get("beta", 3.5), int(a.get("d", 20))).poly,
    # even softplus fit; args d (even degree), delta (offset), steepness
    "relu": lambda a: relu_poly(
        a.get("delta", 0.6), a.get("steepness", 15.0), int(a.get("d", 20))
    ).poly,
}

FAMILY_NAMES = ("fpsearch",) + tuple(sorted(_TARGET_FAMILIES))


def family_target(name: str, args: dict | None = None) -> ChebyshevPoly:
    """Target polynomial of a named family (all families except fpsearch)."""
    if name == "fpsearch":
        raise DomainError("fpsearch is a closed-form phase family with no target polynomial")
    if name not in _TARGET_FAMILIES:
        raise DomainError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    return _TARGET_FAMILIES[name](args or {})


def family_phases(
    name: str, args: dict | None = None, options: SolverOptions | None = None
) -> PhaseSequence:
    """Phases for a named family: closed form for fpsearch, solved otherwise."""
    if name == "fpsearch":
        params = FixedPointParams(int((args or {}).get("d", 10)), (args or {}).get("delta", 0.5))
        return fixed_point_phases(params)
    target = family_target(name, args)
    return solve_phases(target, options or SolverOptions())
