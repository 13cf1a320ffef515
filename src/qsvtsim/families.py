"""Named polynomial / phase families reachable from the CLI.

Each family maps a small argument dict to either a target polynomial (then
synthesized by the phase solver) or, for the closed-form amplification
family, directly to phases.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError
from .phase_solver import FixedPointParams, SolverOptions, fixed_point_phases, solve_phases
from .poly_approx import (
    ChebyshevPoly,
    Parity,
    _erf,
    _fixed_degree,
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
    return _fixed_degree(
        "threshold", lambda x: 0.5 * (_erf(k * (x + 0.5)) - _erf(k * (x - 0.5))), d, Parity.EVEN
    )


def _phase_target(d: int, k: float) -> ChebyshevPoly:
    """Even symmetric step at 1/sqrt(2), the phase-readout target."""
    c = 1.0 / math.sqrt(2.0)
    return _fixed_degree(
        "phase", lambda x: 0.5 * (_erf(k * (c - x)) + _erf(k * (c + x)) - 1.0), d, Parity.EVEN
    )


def _hamsim_target(a: dict) -> ChebyshevPoly:
    """Jacobi-Anger truncation of cos(tx) or sin(tx), by the part argument."""
    parts = {"cos": jacobi_anger_cos, "sin": jacobi_anger_sin}
    if a["part"] not in parts:
        raise DomainError(
            f"hamsim part must be cos or sin, got {a['part']!r}; "
            f"hamsim takes {_usage('hamsim')}"
        )
    return parts[a["part"]](a["t"], a["eps"])


def _efilter_target(a: dict) -> ChebyshevPoly:
    """Eigenstate filter of even degree d = 2k."""
    if a["d"] % 2:
        raise DomainError(f"efilter degree d must be even, got {a['d']}")
    return eigenstate_filter_poly(a["d"] // 2, a["dlam"])


# name -> (argument defaults, builder): every family's arguments, declared
# once, fpsearch first and the rest by name; fpsearch builds its phases in
# closed form, the others a target polynomial
_FAMILIES = {
    # fixed-point amplification phases of length 2d + 1, gap delta
    "fpsearch": (
        {"d": 10, "delta": 0.5},
        lambda a: fixed_point_phases(FixedPointParams(a["d"], a["delta"])),
    ),
    # eigenstate filter of even degree d = 2k and gap dlam
    "efilter": ({"d": 30, "dlam": 0.3}, _efilter_target),
    # even fit of exp(-beta|x|) of even degree d
    "gibbs": ({"d": 20, "beta": 3.5}, lambda a: gibbs_poly(a["beta"], a["d"]).poly),
    # Jacobi-Anger cos/sin truncation
    "hamsim": ({"t": 5.0, "eps": 0.1, "part": "cos"}, _hamsim_target),
    # odd 1/(2*kappa*x) approximation
    "invert": ({"kappa": 3.0, "eps": 0.3}, lambda a: matrix_inversion_poly(a["eps"], a["kappa"])),
    # even symmetric step at 1/sqrt(2), even degree d
    "poly_phase": ({"d": 18, "k": 10.0}, lambda a: _phase_target(a["d"], a["k"])),
    # odd erf-based sign approximation of odd degree d and steepness k
    "poly_sign": ({"d": 19, "k": 10.0}, lambda a: sign_poly_from_steepness(a["d"], a["k"])),
    # even step at |x| = 1/2, even degree d
    "poly_thresh": ({"d": 18, "k": 10.0}, lambda a: _thresh_target(a["d"], a["k"])),
    # even softplus fit of even degree d, offset delta and the given steepness
    "relu": (
        {"d": 20, "delta": 0.6, "steepness": 15.0},
        lambda a: relu_poly(a["delta"], a["steepness"], a["d"]).poly,
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _usage(name: str) -> str:
    """The family's arguments with their defaults, as key=value."""
    return ", ".join(f"{key}={value}" for key, value in _FAMILIES[name][0].items())


def family_usage() -> str:
    """Every family with its arguments and defaults, for help texts."""
    return "; ".join(f"{name} ({_usage(name)})" for name in FAMILY_NAMES)


def _argument(name: str, key: str, default, value):
    """``value`` as the family's argument ``key``: one whose default is a
    float takes a finite number, one whose default is an int a finite
    integral number, as an int; a string is passed on for the builder to
    check.  DomainError names the argument and the value it rejects."""
    if isinstance(default, str):
        return value
    integral = isinstance(default, int)
    numeric = isinstance(value, numbers.Real) and not isinstance(value, bool)
    number = float(value) if numeric else math.nan
    if not math.isfinite(number) or (integral and not number.is_integer()):
        kind = "integer" if integral else "number"
        raise DomainError(f"{name} argument {key} must be a finite {kind}, got {value!r}")
    return int(value) if integral else number


def _build(name: str, args: dict | None):
    """Run the family's builder on its defaults overridden by args, each
    checked against its default's type (``_argument``)."""
    if name not in _FAMILIES:
        raise DomainError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    defaults, builder = _FAMILIES[name]
    unknown = sorted(set(args or {}) - set(defaults))
    if unknown:
        raise DomainError(
            f"family {name} has no argument {', '.join(map(repr, unknown))}; "
            f"it takes {_usage(name)}"
        )
    checked = {key: _argument(name, key, defaults[key], v) for key, v in (args or {}).items()}
    return builder({**defaults, **checked})


def family_target(name: str, args: dict | None = None) -> ChebyshevPoly:
    """Target polynomial of a named family (all families except fpsearch)."""
    if name == "fpsearch":
        raise DomainError("fpsearch is a closed-form phase family with no target polynomial")
    return _build(name, args)


def family_phases(
    name: str, args: dict | None = None, options: SolverOptions | None = None
) -> PhaseSequence:
    """Phases for a named family: closed form for fpsearch, solved otherwise."""
    if name == "fpsearch":
        return _build(name, args)
    return solve_phases(family_target(name, args), options or SolverOptions())
