"""Singular value transformation of block-encoded operators.

Applies a canonical-convention phase sequence to a block encoding as an
alternating product V(phi) of U, its inverse, and projector-controlled
phase rotations, computed by one sweep in the projector frame where each
rotation is a row scaling.  The reflection offsets of ``qsp_core`` map the
stored QSP phases onto projector phases, so the encoded block of V(phi) is
exactly the sequence's P polynomial applied to the singular values.  The real part,
which is the solver's target, is read as 1/2 (block(phi) + block(-phi)),
with no ancilla; ``real_part_encoding`` builds the one-ancilla
Hadamard-select circuit only for callers that need the full unitary.
Independent eigen- and SVD-based oracles are provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding, _average, _into, _inverse, require_hermitian
from .errors import DomainError, NotUnit
from .poly_approx import ChebyshevPoly, Parity
from .qsp_core import CANONICAL, PhaseSequence, _reflection_offsets, convert_convention


@dataclass(frozen=True)
class QsvtProgram:
    """A block encoding plus the canonical phase sequence to apply to it."""

    encoding: BlockEncoding
    phases: PhaseSequence

    def __post_init__(self):
        object.__setattr__(self, "phases", convert_convention(self.phases, CANONICAL))

    @property
    def degree(self) -> int:
        return self.phases.degree


def _sweep(encoding: BlockEncoding, phase_lists, range_only: bool):
    """The products Phi(chi_0) U' Phi(chi_1) ... Phi(chi_d) of every phase
    list at once, in the projector frame.

    U is written once as F_L^dag U F_R, in the frames the encoding derived
    at construction; the frames cancel between steps
    (Phi_L U Phi_R = F_L D_L (F_L^dag U F_R) D_R F_R^dag), so each projector
    phase is the row scaling D(chi): e^{i chi} on the first rank rows and
    e^{-i chi} on the rest.  The lists share one (N, lists, cols) stack and
    one matrix product per step.  ``range_only`` carries only the columns of
    range(P_R), otherwise every column.  Returns (W, out_rank,
    out_frame, right_frame) with V_j = out_frame W[:, j] right_frame^dag; the
    projector angles chi are the phases shifted by the reflection offsets,
    which leave the encoded block with no stray global phase.
    """
    chi = np.array(phase_lists, dtype=float)
    chi += _reflection_offsets(chi.shape[1] - 1)
    d = chi.shape[1] - 1
    rank_r, frame_r = encoding._frame_right
    rank_l, frame_l = encoding._frame_left
    u = _into(encoding.unitary, frame_l, frame_r)
    u_dag = np.ascontiguousarray(u.conj().T)
    n = u.shape[0]
    width = rank_r if range_only else n

    def scale(w, rank, angles):
        w[:rank] *= np.exp(1j * angles)[:, None]
        w[rank:] *= np.exp(-1j * angles)[:, None]

    w = np.zeros((n, len(chi), width), dtype=complex)
    w[np.arange(width), :, np.arange(width)] = 1.0  # identity columns, per list
    scale(w, rank_r, chi[:, d])
    spare = np.empty_like(w)
    for k in range(d - 1, -1, -1):
        odd = (d - k) % 2 == 1  # U factors applied once this slot is added
        np.matmul(u if odd else u_dag, w.reshape(n, -1), out=spare.reshape(n, -1))
        w, spare = spare, w
        scale(w, rank_l if odd else rank_r, chi[:, k])
    if d % 2 == 0:
        return w, rank_r, frame_r, frame_r
    return w, rank_l, frame_l, frame_r


def _full(prog: QsvtProgram, phase_lists):
    """The dense products V of the phase lists, mapped out of the frame."""
    w, _, out_frame, right_frame = _sweep(prog.encoding, phase_lists, range_only=False)
    rows, cols = _inverse(out_frame), _inverse(right_frame)
    return [_into(w[:, j], rows, cols) for j in range(len(phase_lists))]


def qsvt_unitary(prog: QsvtProgram) -> np.ndarray:
    """Full product unitary; its block is the complex polynomial P^(SV)."""
    return _full(prog, [prog.phases.as_array()])[0]


def _conjugate_pair(prog: QsvtProgram):
    """[V(phi), V(-phi)], the real-part circuit's branches, and its output
    projector: the right one for even degree, where the transform stays in
    the right singular vector space, else the left one."""
    phases = prog.phases.as_array()
    enc = prog.encoding
    return _full(prog, [phases, -phases]), enc.proj_left if prog.degree % 2 else enc.proj_right


def real_part_encoding(prog: QsvtProgram) -> BlockEncoding:
    """One-ancilla circuit whose block is Re(P) applied to singular values.

    Hadamards around a branch select of the phase sequence and its phase
    conjugate average the two complex blocks, leaving the real part; the
    ancilla is read out in the |0> slot.
    """
    pair, out_proj = _conjugate_pair(prog)
    return _average(pair, prog.encoding.proj_right, out_proj, prog.encoding.alpha)


def transformed_block(prog: QsvtProgram) -> np.ndarray:
    """Re(P)^(SV) of the encoded block, in the projector-range bases.

    The block of the real-part circuit, 1/2 (V(phi) + V(-phi)) restricted to
    the ranges of the program's (already validated) encoding: the sweep
    carries only the range(P_R) columns of both products and keeps the
    out-range rows, with no ancilla circuit.
    """
    phases = prog.phases.as_array()
    w, out_rank, _, _ = _sweep(prog.encoding, [phases, -phases], range_only=True)
    return 0.5 * (w[:out_rank, 0] + w[:out_rank, 1])


# ---------------------------------------------------------------------------
# Decomposition oracles


def svd_oracle(a: np.ndarray, poly: ChebyshevPoly) -> np.ndarray:
    """Brute-force singular value transform via a dense SVD.

    Odd parity returns W f(S) V^dag (right space to left space); even
    parity returns V f(S) V^dag, matching where the QSVT sequence leaves
    the transform.  The block may be r x c: the odd transform keeps the
    min(r, c) singular pairs, and the even one puts f(0) on the null space.
    """
    if poly.parity is Parity.NONE:
        raise DomainError("singular value transforms need a parity-definite polynomial")
    a = np.asarray(a, dtype=complex)
    w, sigma, vh = np.linalg.svd(a)
    if poly.parity is Parity.ODD:
        return w[:, : len(sigma)] @ np.diag(poly(sigma)) @ vh[: len(sigma)]
    vals = poly(np.concatenate([sigma, np.zeros(a.shape[1] - len(sigma))]))
    return vh.conj().T @ np.diag(vals) @ vh


def eigen_oracle(h: np.ndarray, poly: ChebyshevPoly) -> np.ndarray:
    """Eigenbasis functional calculus sum_l f(lambda_l) |l><l|."""
    h = require_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    return evecs @ np.diag(poly(evals)) @ evecs.conj().T


# ---------------------------------------------------------------------------
# Amplitude amplification (two privileged states)


def amplitude_amplification_matrix_element(
    u: np.ndarray, a0: np.ndarray, b0: np.ndarray, phases
) -> complex:
    """<A0| [prod_k U B(phi_{2k-1}) U^dag A(phi_{2k})] U |B0>.

    The rank-1 phase operators act on the privileged states only; the
    result is a degree <= d+1 polynomial in a = <A0|U|B0> realized with an
    even-length phase list.
    """
    u = np.asarray(u, dtype=complex)
    a0 = np.asarray(a0, dtype=complex).ravel()
    b0 = np.asarray(b0, dtype=complex).ravel()
    for name, vec in (("A0", a0), ("B0", b0)):
        if not abs(np.linalg.norm(vec) - 1.0) <= 1e-10:  # a NaN norm fails too
            raise NotUnit(f"{name} must be a unit vector")
    phases = list(phases)
    if len(phases) % 2 != 0:
        raise DomainError("the amplification product uses an even phase count")

    def rank1_phase(vec: np.ndarray, phi: float) -> np.ndarray:
        return np.eye(len(vec), dtype=complex) + (np.exp(1j * phi) - 1.0) * np.outer(
            vec, vec.conj()
        )

    m = np.eye(u.shape[0], dtype=complex)
    for k in range(0, len(phases), 2):
        m = m @ u @ rank1_phase(b0, phases[k]) @ u.conj().T @ rank1_phase(a0, phases[k + 1])
    m = m @ u
    return complex(a0.conj() @ m @ b0)
