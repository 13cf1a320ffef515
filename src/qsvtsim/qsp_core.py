"""Single-qubit quantum signal processing primitives.

A QSP sequence interleaves a fixed signal rotation with tunable processing
rotations.  Three signal-operator conventions are supported (an x-rotation,
a reflection, and a z-rotation), together with the two readout bases
``<0|.|0>`` and ``<+|.|+>``.  The library-wide canonical convention is
(WX, SZ, ``<+|.|+>``); solvers and the QSVT engine target it.

Every evaluation is one sweep in the signal's eigenframe (``_eigen_sweep``):
there the signal is diagonal and each processing phase is the same 2x2
mixing at every signal value, so a phase costs two array operations on
the rows of all values at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .block_encoding import require_unitary
from .errors import DomainError, ParityError, UnsupportedConversion, _json_field


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


def _node_phases(values: np.ndarray, signal: SignalKind) -> np.ndarray:
    """e^{i theta} at each signal value (any array shape), the diagonal of
    the signal in its eigenframe, D = diag(e^{i theta}, e^{-i theta}).

    WX and reflection take the value x = cos theta, theta in [0, pi], whose
    signal H D H is the x-rotation by theta; WZ takes the angle theta of
    diag(e^{i theta/2}, e^{-i theta/2}), which is diagonal already, so it
    returns e^{i theta/2}.
    """
    if not np.all(np.isfinite(values)):
        raise DomainError("signal values must be finite")
    if signal is SignalKind.WZ:
        return np.cos(0.5 * values) + 1j * np.sin(0.5 * values)
    outside = values[np.abs(values) > 1.0 + 1e-12]
    if outside.size:
        raise DomainError(f"signal value {outside.flat[0]} outside [-1, 1]")
    av = np.clip(values, -1.0, 1.0)
    return av + 1j * np.sqrt(1.0 - av * av)


def _mixers(phases: np.ndarray) -> np.ndarray:
    """H S(phi) H = exp(i phi X) for each phase, a (d + 1, 2, 2) stack."""
    mix = np.empty((len(phases), 2, 2), dtype=complex)
    mix[:, 0, 0] = mix[:, 1, 1] = np.cos(phases)
    mix[:, 0, 1] = mix[:, 1, 0] = 1j * np.sin(phases)
    return mix


# start rows <0| and <0| + <1| of a sweep, as columns that broadcast over nodes
_ZERO = np.array([[1.0], [0.0]])
_PLUS = np.array([[1.0], [1.0]])


def _sweep_diagonal(nodes: np.ndarray) -> np.ndarray:
    """The signal's eigenvalues (e, conj(e)) at each node e (1-D), a (2, m)
    array: the diagonal D that ``_eigen_sweep`` scales by."""
    return np.stack([nodes, np.conj(nodes)])


def _eigen_sweep(mix: np.ndarray, diag: np.ndarray, start=_ZERO,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Row vectors times R_0 D R_1 D ... D R_d, one per node.

    In the signal's eigenframe the QSP product is R_k = ``mix[k]`` (the
    node-independent mixing exp(i phi_k X)) alternating with D =
    diag(e, conj(e)), held as ``diag`` = ``_sweep_diagonal`` of the nodes
    e; ``start`` (2, 1) or (2, m) holds the start row of each node as a
    column.  Each phase costs one (2, 2) @ (2, m) product and one scaling.
    Returns the (2, m) final rows; ``rows`` (d + 1, 2, m), if given,
    receives the row before each R_k.  Each step writes its product into
    one scratch buffer and scales it into the next row.
    """
    *mixers, last = list(mix)
    buf = np.empty_like(diag)
    if rows is None:
        row, nxt = np.empty_like(diag), np.empty_like(diag)
        row[...] = start
        for m in mixers:
            np.dot(m, row, out=buf)
            np.multiply(buf, diag, out=nxt)
            row, nxt = nxt, row
        return last @ row
    rows[0] = start
    views = list(rows)
    for m, row, after in zip(mixers, views, views[1:]):
        np.dot(m, row, out=buf)
        np.multiply(buf, diag, out=after)
    return last @ views[-1]


def _frame_mixers(seq: PhaseSequence) -> np.ndarray:
    """The mixers of the frame product that seq's sweep runs.  WZ's unitary
    is that product and WX's its H-conjugate, with the phases as they are.
    Reflection phases less ``_reflection_offsets`` give the WX unitary times
    a left Z at odd degree.  Its interior offsets -pi/2 are applied exactly,
    as the right factor exp(i pi/2 X) = iX (rounded pi/2 would add up over
    the degree), and the first, (2d - 1) pi/4, is taken mod 2 pi."""
    phases = seq.as_array()
    d = seq.degree
    if seq.convention.signal is not SignalKind.REFLECTION or d == 0:
        return _mixers(phases)
    phases[0] -= ((2 * d - 1) % 8) * np.pi / 4
    phases[-1] += np.pi / 4
    mix = _mixers(phases)
    mix[1:-1] = 1j * mix[1:-1, :, ::-1]
    return mix


def signal_operator(a: float, convention: Convention = CANONICAL) -> np.ndarray:
    """Signal rotation for one sample of the signal.

    For WX and REFLECTION the argument is the signal value a in [-1, 1];
    for WZ it is the rotation angle theta, with a = cos(theta/2) the
    bridging variable.
    """
    e = _node_phases(np.asarray(float(a)), convention.signal)
    x, s = e.real, e.imag
    if convention.signal is SignalKind.WZ:
        return require_unitary(np.diag([e, np.conj(e)]))
    if convention.signal is SignalKind.WX:  # H D H
        return require_unitary(np.array([[x, 1j * s], [1j * s, x]]))
    return require_unitary(np.array([[x, s], [s, -x]], dtype=complex))


def processing_operator(phi: float, convention: Convention = CANONICAL) -> np.ndarray:
    """Processing rotation exp(i*phi*Z) or exp(i*phi*X)."""
    phi = float(phi)
    if convention.processing is ProcessingKind.SZ:
        return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 1j * s], [1j * s, c]])


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _unitaries(seq: PhaseSequence, nodes: np.ndarray) -> np.ndarray:
    """The sequence unitaries, an (m, 2, 2) stack, at the m signal
    eigenvalues ``nodes`` (as ``_node_phases`` gives them).  Each one's rows
    are two sweeps from the unit rows, run side by side in the signal's
    eigenframe; WX and reflection map back by H.H (and reflection takes its
    left Z at odd degree, see ``_frame_mixers``)."""
    conv, m = seq.convention, len(nodes)
    rows = _eigen_sweep(_frame_mixers(seq), _sweep_diagonal(np.repeat(nodes, 2)),
                        np.tile(np.eye(2), m))
    u = rows.reshape(2, m, 2).transpose(1, 2, 0)
    if conv.signal is not SignalKind.WZ:
        u = _H @ u @ _H
        if conv.signal is SignalKind.REFLECTION and seq.degree % 2:
            u[:, 1] *= -1
    return u


def evaluate_sequence(seq: PhaseSequence, a: float) -> np.ndarray:
    """Full 2x2 unitary S(phi_0) * prod_k [W(a) S(phi_k)]."""
    nodes = _node_phases(np.array([float(a)]), seq.convention.signal)
    return require_unitary(_unitaries(seq, nodes)[0], 1e-11)


def response(seq: PhaseSequence, a: float) -> complex:
    """Matrix element of the sequence unitary in the convention's basis."""
    return complex(response_many(seq, float(a)))


def response_many(seq: PhaseSequence, values) -> np.ndarray:
    """Vectorized response: one sweep in the signal's eigenframe.

    There the readout <+|.|+> of WX is <0|.|0>, and <0|.|0> of WX and
    reflection is <+|.|+>; reflection's <+|.|+> at odd degree reads its
    left Z, as X in the frame, from the start row <1|.  WZ is read as it is.
    """
    conv = seq.convention
    values = np.asarray(values, dtype=float)
    diag = _sweep_diagonal(_node_phases(values.ravel(), conv.signal))
    mix = _frame_mixers(seq)
    if conv.basis is Basis.ZERO_ZERO and conv.signal is not SignalKind.WZ:
        top, bot = _eigen_sweep(mix, diag, _PLUS)
        return (0.5 * (top + bot)).reshape(values.shape)
    flip = conv.signal is SignalKind.REFLECTION and seq.degree % 2
    return _eigen_sweep(mix, diag, _ZERO[::-1] if flip else _ZERO)[0].reshape(values.shape)


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
    n = 2 * (d + 2)
    theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    # row 0 of the unitary, <0|H M H for the frame product M, is (P, i*Q*s)
    # with i*Q*s = i * sum_k q_k sin(k theta); from the start <0|H, a
    # multiple of (1, 1), it is ((top + bot) / 2, (top - bot) / 2)
    diag = _sweep_diagonal(_node_phases(np.cos(theta), SignalKind.WX))
    top, bot = _eigen_sweep(_frame_mixers(seq), diag, _PLUS)
    p_vals, row_q = 0.5 * (top + bot), 0.5 * (top - bot)
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
