"""Single-qubit quantum signal processing primitives.

A QSP sequence interleaves a fixed signal rotation with tunable processing
rotations.  Three signal-operator conventions are supported (an x-rotation,
a reflection, and a z-rotation), together with the two readout bases
``<0|.|0>`` and ``<+|.|+>``.  The library-wide canonical convention is
(WX, SZ, ``<+|.|+>``); solvers and the QSVT engine target it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NotUnitary, ParityError, UnsupportedConversion, _json_field

UNITARITY_TOL = 1e-12
RESPONSE_TOL = 1e-10

_Z = np.diag([1.0 + 0j, -1.0 + 0j])


class SignalKind(Enum):
    WX = "wx"
    REFLECTION = "reflection"
    WZ = "wz"


class ProcessingKind(Enum):
    SZ = "sz"
    SX = "sx"


class Basis(Enum):
    ZERO_ZERO = "00"
    PLUS_PLUS = "++"


_ALLOWED = {
    (SignalKind.WX, ProcessingKind.SZ, Basis.ZERO_ZERO),
    (SignalKind.WX, ProcessingKind.SZ, Basis.PLUS_PLUS),
    (SignalKind.REFLECTION, ProcessingKind.SZ, Basis.ZERO_ZERO),
    (SignalKind.REFLECTION, ProcessingKind.SZ, Basis.PLUS_PLUS),
    (SignalKind.WZ, ProcessingKind.SX, Basis.ZERO_ZERO),
}


@dataclass(frozen=True)
class Convention:
    """A (signal, processing, basis) triple identifying a QSP variant."""

    signal: SignalKind
    processing: ProcessingKind
    basis: Basis

    def __post_init__(self):
        if (self.signal, self.processing, self.basis) not in _ALLOWED:
            raise UnsupportedConversion(
                f"convention ({self.signal.value}, {self.processing.value}, "
                f"{self.basis.value}) is not constructible"
            )

    @staticmethod
    def wx(basis: Basis = Basis.PLUS_PLUS) -> "Convention":
        return Convention(SignalKind.WX, ProcessingKind.SZ, basis)

    @staticmethod
    def reflection(basis: Basis = Basis.ZERO_ZERO) -> "Convention":
        return Convention(SignalKind.REFLECTION, ProcessingKind.SZ, basis)

    @staticmethod
    def wz() -> "Convention":
        return Convention(SignalKind.WZ, ProcessingKind.SX, Basis.ZERO_ZERO)


CANONICAL = Convention.wx(Basis.PLUS_PLUS)


@dataclass(frozen=True)
class PhaseSequence:
    """Ordered phase angles (radians) plus the convention they live in.

    Phases are stored unreduced; equality helpers reduce mod 2*pi.  A
    sequence of length d+1 realizes a degree-d polynomial response.
    """

    phases: tuple
    convention: Convention = CANONICAL

    def __post_init__(self):
        phases = tuple(float(p) for p in self.phases)
        if len(phases) < 1:
            raise DomainError("phase sequence must contain at least one angle")
        if not all(np.isfinite(phases)):
            raise DomainError("phase angles must be finite")
        object.__setattr__(self, "phases", phases)

    @property
    def degree(self) -> int:
        return len(self.phases) - 1

    def as_array(self) -> np.ndarray:
        return np.array(self.phases, dtype=float)


def phases_equal_mod_2pi(a, b, tol: float = 1e-12) -> bool:
    """Entrywise equality of two phase lists modulo 2*pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    d = np.mod(a - b + np.pi, 2 * np.pi) - np.pi
    return bool(np.max(np.abs(d)) <= tol)


def _require_unitary(m: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    err = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if err > tol:
        raise NotUnitary(f"matrix is not unitary (defect {err:.3e})")
    return m


def _signal_entries(values: np.ndarray, signal: SignalKind):
    """(w00, w01, w11) of the symmetric signal rotation over an array (or
    0-d array) of signal values; w00 and w11 are real.  WZ is given in the
    Hadamard frame (H exp(i phi X) H = exp(i phi Z)), where its signal is
    the x-rotation by theta, keeping the sign of sin(theta/2)."""
    if signal is SignalKind.WZ:
        c = np.cos(0.5 * values)
        return c, 1j * np.sin(0.5 * values), c
    outside = values[np.abs(values) > 1.0 + 1e-12]
    if outside.size:
        raise DomainError(f"signal value {outside.flat[0]} outside [-1, 1]")
    av = np.clip(values, -1.0, 1.0)
    s = np.sqrt(1.0 - av * av)
    if signal is SignalKind.WX:
        return av, 1j * s, av
    return av, s, -av


def _row_sweep(phases: np.ndarray, entries, row, prefixes: np.ndarray | None = None):
    """The row vector ``row`` (a pair of start entries, broadcast against
    the signal values) times S(phi_0) W S(phi_1) W ... W S(phi_d).

    S(phi) = diag(e^{i phi}, e^{-i phi}) is a row scaling and W the
    symmetric 2x2 of ``entries``, so each phase costs a few vector updates.
    Returns the two final entries; ``prefixes``, of shape (2, d + 1) +
    values shape, if given, receives the row before each S(phi_k).
    """
    w00, w01, w11 = entries
    e = np.exp(1j * np.asarray(phases, dtype=float))
    ec = np.conj(e)
    shape = np.broadcast(w00, *row).shape
    r0, r1 = (np.broadcast_to(np.asarray(v, dtype=complex), shape) for v in row)
    for k in range(len(e)):
        if prefixes is not None:
            prefixes[0, k], prefixes[1, k] = r0, r1
        top, bot = r0 * e[k], r1 * ec[k]
        if k < len(e) - 1:
            r0, r1 = w00 * top + w01 * bot, w01 * top + w11 * bot
    return top, bot


def signal_operator(a: float, convention: Convention = CANONICAL) -> np.ndarray:
    """Signal rotation for one sample of the signal.

    For WX and REFLECTION the argument is the signal value a in [-1, 1];
    for WZ it is the rotation angle theta, with a = cos(theta/2) the
    bridging variable.
    """
    a = float(a)
    if convention.signal is SignalKind.WZ:
        return _require_unitary(np.diag([np.exp(0.5j * a), np.exp(-0.5j * a)]))
    w00, w01, w11 = _signal_entries(np.asarray(a), convention.signal)
    return _require_unitary(np.array([[w00, w01], [w01, w11]], dtype=complex))


def processing_operator(phi: float, convention: Convention = CANONICAL) -> np.ndarray:
    """Processing rotation exp(i*phi*Z) or exp(i*phi*X)."""
    phi = float(phi)
    if convention.processing is ProcessingKind.SZ:
        return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 1j * s], [1j * s, c]])


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def evaluate_sequence(seq: PhaseSequence, a: float) -> np.ndarray:
    """Full 2x2 unitary S(phi_0) * prod_k [W(a) S(phi_k)].

    Its rows are two sweeps from the unit rows, run side by side; WZ maps
    back out of the Hadamard frame.
    """
    entries = _signal_entries(np.full(2, float(a)), seq.convention.signal)
    u = np.array(_row_sweep(seq.as_array(), entries, ([1, 0], [0, 1]))).T
    if seq.convention.signal is SignalKind.WZ:
        u = _H @ u @ _H
    return _require_unitary(u, 1e-11)


def response(seq: PhaseSequence, a: float) -> complex:
    """Matrix element of the sequence unitary in the convention's basis."""
    return complex(response_many(seq, float(a)))


def response_many(seq: PhaseSequence, values) -> np.ndarray:
    """Vectorized response: one row sweep from <0| or <+| (WZ's <0| is <+|
    in the Hadamard frame), read against the same vector."""
    conv = seq.convention
    entries = _signal_entries(np.asarray(values, dtype=float), conv.signal)
    if conv.basis is Basis.PLUS_PLUS or conv.signal is SignalKind.WZ:
        top, bot = _row_sweep(seq.as_array(), entries, (1, 1))
        return 0.5 * (top + bot)
    return _row_sweep(seq.as_array(), entries, (1, 0))[0]


def response_curve(seq: PhaseSequence, grid) -> list:
    """Pointwise response along a grid; returns [(a, complex), ...]."""
    grid = list(grid)
    if not grid:
        return []
    vals = response_many(seq, np.array(grid, dtype=float))
    return list(zip([float(g) for g in grid], [complex(v) for v in vals]))


def _reflection_offsets(degree: int) -> np.ndarray:
    """Shifts taking Wx phases to reflection phases, and canonical phases to
    the engine's projector angles: (2d-1)*pi/4 on the first, -pi/4 on the
    last, -pi/2 between; the (2d-1)*pi/4 absorbs the (-i)^d left by writing
    each reflection as an x-rotation."""
    if degree == 0:
        return np.zeros(1)
    offsets = np.full(degree + 1, -np.pi / 2)
    offsets[0], offsets[-1] = (2 * degree - 1) * np.pi / 4, -np.pi / 4
    return offsets


def convert_convention(seq: PhaseSequence, target: Convention) -> PhaseSequence:
    """Re-express a phase sequence in another convention.

    Supported pairs: WX <-> REFLECTION (response preserved in the 00 basis
    for any degree, and in the ++ basis for even degree), and
    WX/++ <-> WZ/00 (identical phases, Hadamard-conjugate operators).

    The reflection mapping shifts the end phases by pi/4 and interior
    phases by pi/2.  For odd degree the two sequence unitaries differ by a
    left factor of Z (a determinant obstruction), which leaves the
    ``<0|.|0>`` element untouched but changes ``<+|.|+>``; that pair is
    therefore rejected.
    """
    conv = seq.convention
    if target == conv:
        return seq
    phases = seq.as_array()
    d = seq.degree

    if {conv.signal, target.signal} == {SignalKind.WX, SignalKind.REFLECTION}:
        if conv.basis != target.basis:
            raise UnsupportedConversion("wx<->reflection conversion keeps the basis")
        if target.basis is Basis.PLUS_PLUS and d % 2 == 1:
            raise UnsupportedConversion(
                "wx<->reflection with the ++ basis requires even degree"
            )
        offsets = _reflection_offsets(d)
        out = phases + offsets if conv.signal is SignalKind.WX else phases - offsets
        return PhaseSequence(tuple(out), target)

    wx_pp = Convention.wx(Basis.PLUS_PLUS)
    wz = Convention.wz()
    if (conv, target) in [(wx_pp, wz), (wz, wx_pp)]:
        return PhaseSequence(tuple(phases), target)

    raise UnsupportedConversion(
        f"no conversion from ({conv.signal.value},{conv.basis.value}) "
        f"to ({target.signal.value},{target.basis.value})"
    )


# ---------------------------------------------------------------------------
# P/Q decomposition and the Laurent picture


def pq_from_sequence(seq: PhaseSequence):
    """Complex Chebyshev coefficients (p_k, q_k) of the sequence unitary.

    The unitary is [[P, i*Q*s], [i*conj(Q)*s, conj(P)]] with s = sqrt(1-a^2);
    P is returned in the T_k basis (length d+1) and Q in the U_{k-1} basis
    (length d+1, q_0 = 0).  (P, Q) is row 0, which no readout basis
    changes: WZ phases are the WX sequence in the Hadamard frame, and
    reflection phases map to WX through their 00-basis offsets (at odd
    degree the left Z factor between the two unitaries changes row 1 only).
    """
    d = seq.degree
    phases = seq.as_array()
    if seq.convention.signal is SignalKind.REFLECTION:
        phases = phases - _reflection_offsets(d)
    n = 2 * (d + 2)
    theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    a = np.cos(theta)
    # row 0 of the unitary is (P, i*Q*s), with i*Q*s = i * sum_k q_k sin(k theta)
    p_vals, row_q = _row_sweep(phases, _signal_entries(a, SignalKind.WX), (1, 0))
    # cos(k theta) and sin(k theta), k <= d < n, are orthogonal on these angles
    k = np.arange(d + 1)
    p_coeffs = (2.0 / n) * np.cos(np.outer(k, theta)) @ p_vals
    p_coeffs[0] /= 2
    q_coeffs = (2.0 / n) * np.sin(np.outer(k, theta)) @ (row_q / 1j)
    return p_coeffs, q_coeffs


@dataclass(frozen=True)
class LaurentPair:
    """Real Laurent coefficient lists for (F, G), indexed -d..d."""

    f_coeffs: np.ndarray
    g_coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return (len(self.f_coeffs) - 1) // 2

    def evaluate(self, w: np.ndarray):
        d = self.degree
        powers = w[..., None] ** np.arange(-d, d + 1)
        return powers @ self.f_coeffs, powers @ self.g_coeffs

    def unitarity_defect(self, n_samples: int = 64) -> float:
        """max |F(w)F(1/w) + G(w)G(1/w) - 1| on the unit circle."""
        w = np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
        f, g = self.evaluate(w)
        fi, gi = self.evaluate(1.0 / w)
        return float(np.max(np.abs(f * fi + g * gi - 1.0)))


def laurent_from_pq(p_coeffs, q_coeffs) -> LaurentPair:
    """Map (P, Q) Chebyshev coefficients to the Laurent pair (F, G).

    p_coeffs are in the T_k basis and q_coeffs in the U_{k-1} basis, both
    indexed 0..d with complex entries; P must have parity d mod 2 and Q
    parity (d-1) mod 2.
    """
    p = np.asarray(p_coeffs, dtype=complex)
    q = np.asarray(q_coeffs, dtype=complex)
    d = max(len(p), len(q)) - 1
    p = np.pad(p, (0, d + 1 - len(p)))
    q = np.pad(q, (0, d + 1 - len(q)))
    tol = 1e-12
    for k in range(d + 1):
        if k % 2 != d % 2 and abs(p[k]) > tol:
            raise ParityError(f"p_{k} violates parity {d % 2}")
        # q_k multiplies U_{k-1}, a degree k-1 polynomial
        if k >= 1 and (k - 1) % 2 != (d - 1) % 2 and abs(q[k]) > tol:
            raise ParityError(f"q_{k} violates parity {(d - 1) % 2}")
    f = np.zeros(2 * d + 1)
    g = np.zeros(2 * d + 1)
    f[d] = np.real(p[0])
    g[d] = np.imag(p[0])
    for k in range(1, d + 1):
        f[d + k] = 0.5 * np.real(p[k] + q[k])
        f[d - k] = 0.5 * np.real(p[k] - q[k])
        g[d + k] = 0.5 * np.imag(p[k] - q[k])
        g[d - k] = 0.5 * np.imag(p[k] + q[k])
    return LaurentPair(f, g)


# ---------------------------------------------------------------------------
# Serialization


def phase_sequence_to_json(seq: PhaseSequence) -> str:
    payload = {
        "convention": {
            "signal": seq.convention.signal.value,
            "processing": seq.convention.processing.value,
            "basis": seq.convention.basis.value,
        },
        "phases": list(seq.phases),
    }
    return json.dumps(payload, sort_keys=True)


def phase_sequence_from_json(text: str) -> PhaseSequence:
    payload = json.loads(text)
    conv = _json_field(payload, "convention", lambda v: v, "phase sequence")
    convention = Convention(
        _json_field(conv, "signal", SignalKind, "phase sequence convention"),
        _json_field(conv, "processing", ProcessingKind, "phase sequence convention"),
        _json_field(conv, "basis", Basis, "phase sequence convention"),
    )
    phases = _json_field(payload, "phases", lambda v: tuple(map(float, v)), "phase sequence")
    return PhaseSequence(phases, convention)
