"""Singular value transformation of block-encoded operators.

Applies a canonical-convention phase sequence to a block encoding as an
alternating product V(phi) of U, its inverse, and projector-controlled
phase rotations.  By Jordan's lemma the product acts on each singular
pair's invariant space, of dimension 1 or 2, as the 2x2 QSP product at that
singular value, so what a caller reads of it depends only on the encoded
block A: ``transformed_block`` reads the SVD its encoding stores and the QSP
response of ``qsp_core`` at its singular values, as amplitude amplification,
the threshold and phase estimation read their blocks' own decompositions.
``_full``, the dense product for the callers that need the unitary, reads it
in one eigenframe of the product of the two reflections, about range(P_R)
and U^dag range(P_L), with ``qsp_core``'s QSP unitaries at its eigenphases.
The reflection offsets of ``qsp_core`` map the stored QSP phases onto
projector phases, so the encoded block of V(phi) is exactly the sequence's
P polynomial applied to the singular values.  The real part, which is the
solver's target, is read as 1/2 (block(phi) + block(-phi)), with no
ancilla; ``real_part_encoding`` builds the one-ancilla Hadamard-select
circuit only for callers that need the full unitary.  Independent eigen-
and SVD-based oracles are provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import (BlockEncoding, _average, _eigenframe, _into, _inverse, _require_dim,
                             _require_finite, _square, require_hermitian, require_unitary)
from .errors import DomainError, NotUnit, NotUnitary
from .poly_approx import ChebyshevPoly, Parity
from .qsp_core import (CANONICAL, Convention, PhaseSequence, _reflection_offsets, _unitaries,
                       convert_convention, response, response_many)


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


def _full(enc: BlockEncoding, phase_lists):
    """The dense products V of canonical phase lists, of any degrees, on the
    encoding, mapped out of its projector frames.

    In the frames, U' is first taken one Newton-Schulz step to the nearest
    matrix with orthonormal rows, so that its range rows U_L give a
    reflection 2 U_L^dag U_L - I to rounding, whatever the input's defect.
    By Jordan's lemma, on each invariant piece of x in range(P_R) and y
    outside it, at singular value s = cos theta, an even degree's product is
    the reflection-convention QSP unitary E at s, and W = (2 P_R - I)
    (2 U_L^dag U_L - I) is the rotation by -2 theta, with eigenvectors
    (x +- i y) / sqrt 2 at e^{+-2i theta}.  So at each eigenphase omega of
    one ``_eigenframe`` of W, with theta = |omega| / 2 and sigma = sign omega,
    V is E00 + i sigma E01 on range(P_R) and E11 - i sigma E10 outside it.
    Nothing is divided by sin theta, and E is diagonal at theta = 0 and
    pi / 2, where eigenvalues cluster.  An odd degree ends with U' and
    Phi_L(chi_0) on the left of its even part.
    """
    rank_r, frame_r = enc._frame_right
    rank_l, frame_l = enc._frame_left
    u = _into(enc.unitary, frame_l, frame_r)
    u = 1.5 * u - 0.5 * (u @ u.conj().T) @ u
    w = 2.0 * (u[:rank_l].conj().T @ u[:rank_l])
    w[np.diag_indices(enc.dim)] -= 1.0
    w[rank_r:] *= -1.0
    q, phi = _eigenframe(w)
    nodes = np.exp(1j * np.pi * np.minimum(phi, 1.0 - phi))  # e^{i theta}
    sigma = np.sign(0.5 - phi)  # E01 = E10 = 0 at phi = 0 and 1/2, where the sign is moot
    products = []
    for phases in phase_lists:
        chi = np.asarray(phases, dtype=float) + _reflection_offsets(len(phases) - 1)
        odd = len(chi) % 2 == 0
        e = _unitaries(PhaseSequence(tuple(chi[odd:]), Convention.reflection()), nodes)
        v = q * (e[:, 0, 0] + 1j * sigma * e[:, 0, 1])
        v[rank_r:] = q[rank_r:] * (e[:, 1, 1] - 1j * sigma * e[:, 1, 0])
        v = v @ q.conj().T
        if odd:
            v = u @ v
            v[:rank_l] *= np.exp(1j * chi[0])
            v[rank_l:] *= np.exp(-1j * chi[0])
        products.append(_into(v, _inverse(frame_l if odd else frame_r), _inverse(frame_r)))
    return products


def qsvt_unitary(prog: QsvtProgram) -> np.ndarray:
    """Full product unitary; its block is the complex polynomial P^(SV)."""
    return _full(prog.encoding, [prog.phases.as_array()])[0]


def real_part_encoding(prog: QsvtProgram) -> BlockEncoding:
    """One-ancilla circuit whose block is Re(P) applied to singular values.

    Hadamards around a branch select of the phase sequence and its phase
    conjugate average the two complex blocks, leaving the real part; the
    ancilla is read out in the |0> slot of P_R at even degree, where the
    transform stays in the right singular vector space, else of P_L.
    """
    enc, phases = prog.encoding, prog.phases.as_array()
    right, left = enc._projectors
    return _average(_full(enc, [phases, -phases]), right, left if prog.degree % 2 else right,
                    enc.alpha)


def transformed_block(prog: QsvtProgram) -> np.ndarray:
    """Re(P)^(SV) of the encoded block, in the projector-range bases: the
    block of the real-part circuit, 1/2 (V(phi) + V(-phi)) restricted to the
    ranges of the program's (already validated) encoding.  With the SVD the
    encoding stores, A = W diag(s) V^dag, it is the QSP response f read at s
    (Jordan's lemma): W f V^dag at odd degree and V f V^dag at even degree,
    with f(0) on the null space, as in ``svd_oracle``.  s is clipped into
    [0, 1] first: an encoding's block may reach 1 + 1e-10 in norm."""
    w, s, vh = prog.encoding._block_svd
    values = np.zeros(len(vh))
    values[: len(s)] = np.clip(s, 0.0, 1.0)
    f = response_many(prog.phases, values).real
    if prog.degree % 2:
        return (w[:, : len(s)] * f[: len(s)]) @ vh[: len(s)]
    return (vh.conj().T * f) @ vh


# ---------------------------------------------------------------------------
# Decomposition oracles


def svd_oracle(a: np.ndarray, poly: ChebyshevPoly) -> np.ndarray:
    """Brute-force singular value transform via a dense SVD.

    Odd parity returns W f(S) V^dag (right space to left space); even
    parity returns V f(S) V^dag, matching where the QSVT sequence leaves
    the transform.  The block may be r x c: the odd transform keeps the
    min(r, c) singular pairs, and the even one puts f(0) on the null space.
    A NaN or infinite entry raises DomainError before the SVD.
    """
    if poly.parity is Parity.NONE:
        raise DomainError("singular value transforms need a parity-definite polynomial")
    a = np.asarray(a, dtype=complex)
    _require_finite(a)
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
    """<A0| [prod_k U B(phi_{2k}) U^dag A(phi_{2k+1})] U |B0>, a degree <= d+1
    polynomial in a = <A0|U|B0> realized with an even-length phase list.

    B(phi) = I + (e^{i phi} - 1)|B0><B0| is e^{i phi/2} Phi_R(phi/2) for the
    rank-1 projectors |B0><B0| and |A0><A0|, and A(phi) likewise with Phi_L,
    so this is the transform at the projector angles (0, phi/2, 0) of the
    1x1 block a = e^{i arg a} |a|: at its odd degree, e^{i arg a} P(|a|), with
    P the <0|.|0> response of those angles as reflection-convention phases.
    u must be a unitary of dimension at most 1024.
    """
    a0, b0 = (np.asarray(vec, dtype=complex).ravel() for vec in (a0, b0))
    for name, vec in (("A0", a0), ("B0", b0)):
        if not abs(np.linalg.norm(vec) - 1.0) <= 1e-10:  # a NaN norm fails too
            raise NotUnit(f"{name} must be a unit vector")
    phases = np.array(list(phases), dtype=float)
    if len(phases) % 2 != 0:
        raise DomainError("the amplification product uses an even phase count")
    u = _square(u, NotUnitary)
    _require_dim(len(u))
    u = require_unitary(u)
    if a0.shape != (len(u),) or b0.shape != (len(u),):
        raise DomainError("A0 and B0 must match the unitary dimension")
    a = np.vdot(a0, u @ b0) / (np.linalg.norm(a0) * np.linalg.norm(b0))
    angles = PhaseSequence((0.0, *(phases / 2.0), 0.0), Convention.reflection())
    p = response(angles, min(abs(a), 1.0))
    return complex(np.exp(0.5j * phases.sum() + 1j * np.angle(a)) * p)
