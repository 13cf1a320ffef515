"""Singular value transformation of block-encoded operators.

Applies a canonical-convention phase sequence to a block encoding as an
alternating product V(phi) of U, its inverse, and projector-controlled
phase rotations, computed by one sweep in the projector frame where each
rotation is a row scaling.  The sweep takes the steps in pairs: each
U^dag Phi_L(chi) U is the phase rotation about the rotated projector
U^dag Pi_L U, which it applies as one rank-r_L update through the r_L rows
of U that Pi_L keeps, so a pair costs 2 r_L N multiply-adds per column
instead of 2 N^2.  The product is linear in its start, so the sweep
carries only the columns a caller reads: all N for the full unitary, the
range(P_R) identity for the block, one state for a caller that reads
block . psi.  The reflection offsets of ``qsp_core`` map the stored QSP
phases onto projector phases, so the encoded block of V(phi) is exactly the
sequence's P polynomial applied to the singular values.  The real part,
which is the solver's target, is read as 1/2 (block(phi) + block(-phi)),
with no ancilla; ``real_part_encoding`` builds the one-ancilla
Hadamard-select circuit only for callers that need the full unitary.
Amplitude amplification between two privileged states is the same product
on rank-1 projectors.  Independent eigen- and SVD-based oracles are
provided for verification.
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


def _sweep(encoding: BlockEncoding, phase_lists, start):
    """The products Phi(chi_0) U Phi(chi_1) U^dag ... Phi(chi_d) of every
    phase list at once, in the projector frame, one reflection pair per step.

    U is written once as U' = F_L^dag U F_R, in the frames the encoding
    derived at construction; the frames cancel between steps
    (Phi_L U Phi_R = F_L D_L U' D_R F_R^dag), so each projector phase is
    D(chi) = e^{-i chi} diag(e^{2i chi} I_rank, I): up to the scalar, a
    scaling of the first rank rows.  Each pair U'^dag D_L(chi) U' is a
    rotation about the rotated projector U'^dag Pi_L U', so with U_L the
    first rank_l rows of U' it is e^{-i chi} (I + (e^{2i chi} - 1) U_L^dag U_L):
    a rank-rank_l update W += (e^{2i chi} - 1) U_L^dag (U_L W) at 2 rank_l N
    multiply-adds per column, where the full product costs 2 N^2.  The
    scalars e^{-i chi} of every list are applied once, at the end.  An odd
    degree ends with one product by U' and D_L(chi_0).

    The lists share one (N, lists, cols) stack of the columns the caller
    reads: the product is linear in ``start``, which holds them in the
    range(P_R) basis as (rank_r, cols) and for odd degree keeps only the
    out-range rows, so only U_L is gathered; ``None`` starts from every
    column.  Returns (W, out_rank, out_frame, right_frame) with V_j =
    out_frame W[:, j] right_frame^dag for ``None``; the projector angles chi
    are the phases shifted by the reflection offsets, which leave the
    encoded block with no stray global phase.
    """
    chi = np.array(phase_lists, dtype=float)
    chi += _reflection_offsets(chi.shape[1] - 1)
    d = chi.shape[1] - 1
    rank_r, frame_r = encoding._frame_right
    rank_l, frame_l = encoding._frame_left
    full_end = d % 2 == 1 and start is None  # the odd end needs every row of U'
    u = _into(encoding.unitary, frame_l if full_end else frame_l[..., :rank_l], frame_r)
    u_l = u[:rank_l]
    u_l_dag = u_l.conj().T
    n = u.shape[1]
    turn = np.expm1(2j * chi)  # e^{2i chi} - 1, the range rows' phase less the rest's

    w = np.zeros((n, len(chi), n if start is None else start.shape[1]), dtype=complex)
    if start is None:
        w[np.arange(n), :, np.arange(n)] = 1.0  # identity columns, per list
    else:
        w[:rank_r] = start[:, None]
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
    out_rank, out_frame = rank_r, frame_r
    if d % 2:
        w = np.matmul(u, stack, out=spare[: len(u)]).reshape(len(u), *w.shape[1:])
        w[:rank_l] *= 1.0 + turn[:, 0, None]
        out_rank, out_frame = rank_l, frame_l
    w *= np.prod(np.exp(-1j * chi), axis=1)[:, None]
    return w, out_rank, out_frame, frame_r


def _full(prog: QsvtProgram, phase_lists):
    """The dense products V of the phase lists, mapped out of the frame."""
    w, _, out_frame, right_frame = _sweep(prog.encoding, phase_lists, None)
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


def _transformed(prog: QsvtProgram, x: np.ndarray) -> np.ndarray:
    """``transformed_block(prog) @ x`` without the block, for x of shape
    (rank(P_R), cols) in the range(P_R) basis: the sweep starts from x."""
    phases = prog.phases.as_array()
    w, out_rank, _, _ = _sweep(prog.encoding, [phases, -phases], x)
    return 0.5 * (w[:out_rank, 0] + w[:out_rank, 1])


def transformed_block(prog: QsvtProgram) -> np.ndarray:
    """Re(P)^(SV) of the encoded block, in the projector-range bases.

    The block of the real-part circuit, 1/2 (V(phi) + V(-phi)) restricted to
    the ranges of the program's (already validated) encoding: the transform
    applied to the identity of range(P_R), with no ancilla circuit.
    """
    return _transformed(prog, np.eye(prog.encoding._frame_right[0], dtype=complex))


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

    B(phi) = I + (e^{i phi} - 1)|B0><B0| is e^{i phi/2} Phi_R(phi/2) on the
    encoding (u, |B0><B0|, |A0><A0|), and A(phi) likewise with Phi_L, so this
    is one engine product at the angles (0, phi/2, 0), swept from the one
    range(P_R) column; u must be a unitary of dimension at most 1024.
    """
    a0, b0 = (np.asarray(vec, dtype=complex).ravel() for vec in (a0, b0))
    for name, vec in (("A0", a0), ("B0", b0)):
        if not abs(np.linalg.norm(vec) - 1.0) <= 1e-10:  # a NaN norm fails too
            raise NotUnit(f"{name} must be a unit vector")
    phases = np.array(list(phases), dtype=float)
    if len(phases) % 2 != 0:
        raise DomainError("the amplification product uses an even phase count")
    a0, b0 = a0 / np.linalg.norm(a0), b0 / np.linalg.norm(b0)
    enc = BlockEncoding(u, np.outer(b0, b0.conj()), np.outer(a0, a0.conj()))
    chi = np.concatenate([[0.0], phases / 2.0, [0.0]])
    canonical = PhaseSequence(tuple(chi - _reflection_offsets(len(phases) + 1)), CANONICAL)
    w, _, out_frame, right_frame = _sweep(enc, [canonical.as_array()], np.ones((1, 1)))

    def along(frame, vec):  # <f|vec> for the frame's range vector f
        return _into(vec[:, None], frame[..., :1], np.zeros(1, dtype=int))[0, 0]

    element = np.conj(along(out_frame, a0)) * w[0, 0, 0] * along(right_frame, b0)
    return complex(np.exp(0.5j * phases.sum()) * element)
