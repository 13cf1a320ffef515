"""Singular value transformation of block-encoded operators.

Applies a canonical-convention phase sequence to a block encoding as an
alternating product V(phi) of U, its inverse, and projector-controlled
phase rotations.  The reflection offsets of ``qsp_core`` map the stored QSP
phases onto projector phases, so the encoded block of V(phi) is exactly the
sequence's P polynomial applied to the singular values.  The real part,
which is the solver's target, is read as 1/2 (block(phi) + block(-phi)),
with no ancilla; ``real_part_encoding`` builds the one-ancilla
Hadamard-select circuit only for callers that need the full unitary.
Independent eigen- and SVD-based oracles are provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import BlockEncoding, _lift, _restrict, _select, projector_phase
from .errors import DomainError, NotHermitian, NotUnit, UnsupportedConversion
from .poly_approx import ChebyshevPoly, Parity
from .qsp_core import (
    CANONICAL,
    Basis,
    Convention,
    PhaseSequence,
    SignalKind,
    _reflection_offsets,
    convert_convention,
)


def _to_canonical(seq: PhaseSequence) -> PhaseSequence:
    if seq.convention == CANONICAL:
        return seq
    if seq.convention == Convention.wz():
        return convert_convention(seq, CANONICAL)
    if seq.convention.signal is SignalKind.REFLECTION and seq.convention.basis is Basis.PLUS_PLUS:
        return convert_convention(seq, CANONICAL)
    raise UnsupportedConversion(
        "engine phases must be convertible to the (wx, sz, ++) convention"
    )


@dataclass(frozen=True)
class QsvtProgram:
    """A block encoding plus the canonical phase sequence to apply to it."""

    encoding: BlockEncoding
    phases: PhaseSequence

    def __post_init__(self):
        object.__setattr__(self, "phases", _to_canonical(self.phases))

    @property
    def degree(self) -> int:
        return self.phases.degree

    @property
    def parity(self) -> Parity:
        return Parity.EVEN if self.degree % 2 == 0 else Parity.ODD


def _phased_product(encoding: BlockEncoding, phases: np.ndarray) -> np.ndarray:
    """Alternating product Phi(chi_0) U' Phi(chi_1) ... Phi(chi_d).

    The projector angles chi are the phases shifted by the reflection
    offsets, which leave the encoded block with no stray global phase.
    """
    d = len(phases) - 1
    chi = phases + _reflection_offsets(d)
    u = encoding.unitary
    pr, pl = encoding.proj_right, encoding.proj_left
    v = projector_phase(pr, chi[d])
    for k in range(d - 1, -1, -1):
        applied = d - k  # U factors applied once this slot is added
        op = u if applied % 2 == 1 else u.conj().T
        proj = pr if applied % 2 == 0 else pl
        v = projector_phase(proj, chi[k]) @ (op @ v)
    return v


def qsvt_unitary(prog: QsvtProgram) -> np.ndarray:
    """Full product unitary; its block is the complex polynomial P^(SV)."""
    return _phased_product(prog.encoding, prog.phases.as_array())


def _conjugate_pair(prog: QsvtProgram):
    """(V(phi), V(-phi), output projector); the mean of the two blocks is Re(P).

    For even degree the transform lives in the right singular vector space
    (the right projector on both sides); for odd degree it maps the right
    space into the left one.
    """
    phases = prog.phases.as_array()
    enc = prog.encoding
    out_proj = enc.proj_right if prog.degree % 2 == 0 else enc.proj_left
    return _phased_product(enc, phases), _phased_product(enc, -phases), out_proj


def _real_part_circuit(prog: QsvtProgram):
    """(unitary, proj_right, proj_left) of the one-ancilla real-part circuit,
    unvalidated, for callers that combine it further."""
    v_plus, v_minus, out_proj = _conjugate_pair(prog)
    return _select(v_plus, v_minus), _lift(prog.encoding.proj_right), _lift(out_proj)


def real_part_encoding(prog: QsvtProgram) -> BlockEncoding:
    """One-ancilla circuit whose block is Re(P) applied to singular values.

    Hadamards around a branch select of the phase sequence and its phase
    conjugate average the two complex blocks, leaving the real part; the
    ancilla is read out in the |0> slot.
    """
    return BlockEncoding(*_real_part_circuit(prog), prog.encoding.alpha)


def transformed_block(prog: QsvtProgram) -> np.ndarray:
    """Re(P)^(SV) of the encoded block, in the projector-range bases.

    The block of the real-part circuit, 1/2 (V(phi) + V(-phi)) restricted to
    the ranges of the program's (already validated) encoding, formed
    without building the ancilla circuit.
    """
    v_plus, v_minus, out_proj = _conjugate_pair(prog)
    return _restrict(0.5 * (v_plus + v_minus), out_proj, prog.encoding.proj_right)


# ---------------------------------------------------------------------------
# Decomposition oracles


def svd_oracle(a: np.ndarray, poly: ChebyshevPoly) -> np.ndarray:
    """Brute-force singular value transform via a dense SVD.

    Odd parity returns W f(S) V^dag (right space to left space); even
    parity returns V f(S) V^dag, matching where the QSVT sequence leaves
    the transform.
    """
    if poly.parity is Parity.NONE:
        raise DomainError("singular value transforms need a parity-definite polynomial")
    a = np.asarray(a, dtype=complex)
    w, sigma, vh = np.linalg.svd(a)
    vals = poly(sigma)
    if poly.parity is Parity.ODD:
        return w @ np.diag(vals) @ vh
    return vh.conj().T @ np.diag(vals) @ vh


def eigen_oracle(h: np.ndarray, poly: ChebyshevPoly) -> np.ndarray:
    """Eigenbasis functional calculus sum_l f(lambda_l) |l><l|."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise NotHermitian("eigen_oracle expects a Hermitian matrix")
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
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
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
