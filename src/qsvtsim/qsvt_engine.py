"""Singular value transformation of block-encoded operators.

Applies a canonical-convention phase sequence to a block encoding as an
alternating product V(phi) of U, its inverse, and projector-controlled
phase rotations.  By Jordan's lemma the product acts on each singular
pair's invariant space, of dimension 1 or 2, as the 2x2 QSP product at that
singular value, so what a caller reads of it depends only on the encoded
block A: ``transformed_block`` reads the SVD its encoding stores and the QSP
response of ``qsp_core`` at its singular values, as amplitude amplification,
the threshold and phase estimation read their blocks' own decompositions.
``_full`` is the one dense circuit product: it carries all N columns in all
N rows of the projector frame, where each rotation is a row scaling and
each U^dag Phi_L(chi) U one rank-r_L update, so that it stays unitary at
any degree; it serves the callers that need the unitary and is the circuit
reference for the block reads.  The reflection offsets of ``qsp_core`` map the stored QSP phases onto
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

from .block_encoding import (BlockEncoding, _average, _into, _inverse, _require_dim, _square,
                             require_hermitian, require_unitary)
from .errors import DomainError, NotUnit, NotUnitary
from .poly_approx import ChebyshevPoly, Parity
from .qsp_core import (CANONICAL, Convention, PhaseSequence, _reflection_offsets,
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


def _full(prog: QsvtProgram, phase_lists):
    """The dense products V of the phase lists, mapped out of the frame.

    Every column of the identity is carried in all N rows of the frame,
    which are orthonormal coordinates, so each pair U'^dag D_L(chi) U' =
    e^{-i chi} (I + (e^{2i chi} - 1) U_L^dag U_L) is applied as one
    rank-rank_l update W += (e^{2i chi} - 1) U_L^dag (U_L W), at 2 rank_l N
    multiply-adds per column, and each Phi_R(chi) scales the first rank_r
    rows; an odd degree ends with one product by U' and D_L(chi_0).  U' (at
    even degree its rows U_L) is first taken one Newton-Schulz step to the
    nearest matrix with orthonormal rows, so that every pair is a unitary to
    rounding: the product's unitarity defect then grows by about 2e-16 a
    step, not by the input's defect, and stays under 1e-13 at degree 511.
    """
    enc = prog.encoding
    chi = np.array(phase_lists, dtype=float)
    d = chi.shape[1] - 1
    chi += _reflection_offsets(d)  # the projector angles
    rank_r, frame_r = enc._frame_right
    rank_l, frame_l = enc._frame_left
    u = _into(enc.unitary, frame_l if d % 2 else frame_l[..., :rank_l], frame_r)
    u = 1.5 * u - 0.5 * (u @ u.conj().T) @ u
    u_l = u[:rank_l]
    u_l_dag = u_l.conj().T
    n = enc.dim
    turn = np.expm1(2j * chi)  # e^{2i chi} - 1, the range rows' phase less the rest's

    w = np.zeros((n, len(chi), n), dtype=complex)
    w[np.arange(n), :, np.arange(n)] = 1.0  # identity columns, per list
    w[:rank_r] *= 1.0 + turn[:, d, None]
    stack = w.reshape(n, -1)
    spare = np.empty_like(stack)
    proj = np.empty((rank_l,) + w.shape[1:], dtype=complex)
    proj_stack = proj.reshape(rank_l, stack.shape[1])
    for k in range(d - 1, 0, -2):
        np.matmul(u_l, stack, out=proj_stack)
        proj *= turn[:, k, None]
        stack += np.matmul(u_l_dag, proj_stack, out=spare)
        w[:rank_r] *= 1.0 + turn[:, k - 1, None]
    if d % 2:
        w = np.matmul(u, stack, out=spare).reshape(w.shape)
        w[:rank_l] *= 1.0 + turn[:, 0, None]
    w *= np.prod(np.exp(-1j * chi), axis=1)[:, None]
    rows, cols = _inverse(frame_l if d % 2 else frame_r), _inverse(frame_r)
    return [_into(w[:, j], rows, cols) for j in range(len(chi))]


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
