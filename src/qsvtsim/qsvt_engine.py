"""Singular value transformation of block-encoded operators.

Applies a canonical-convention phase sequence to a block encoding as an
alternating product V(phi) of U, its inverse, and projector-controlled
phase rotations, computed in the projector frame where each rotation is a
row scaling.  The product acts on each singular pair's two-dimensional
invariant space, so what a caller reads of it depends only on the encoded
block A: ``_sweep`` takes A alone and carries the columns a caller reads
(the range(P_R) identity for the block, one state for a caller that reads
block . psi) as their two projections onto range(P_R) and onto the rotated
range U^dag range(P_L), and every step is one product by A or A^dag, so a
reflection pair costs 2 r_L r_R multiply-adds per column.  The dense
unitary (``_full``) carries all N columns in all N rows, an orthonormal
frame, so that it stays unitary at any degree; each U^dag Phi_L(chi) U
there is one rank-r_L update through the r_L rows of U that Pi_L keeps.
The reflection offsets of ``qsp_core`` map the stored QSP phases onto
projector phases, so the encoded block of V(phi) is exactly the
sequence's P polynomial applied to the singular values.  The real part,
which is the solver's target, is read as 1/2 (block(phi) + block(-phi)),
with no ancilla; ``real_part_encoding`` builds the one-ancilla
Hadamard-select circuit only for callers that need the full unitary.
Amplitude amplification between two privileged states is the scalar sweep
of the 1x1 block <A0|U|B0>.  Independent eigen- and SVD-based oracles are
provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import (BlockEncoding, _average, _into, _inverse, _require_dim, _square,
                             extract_block, require_hermitian, require_unitary)
from .errors import DomainError, NotUnit, NotUnitary
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


def _angles(phase_lists) -> np.ndarray:
    """The projector angles chi of each list, (lists, d + 1): the phases
    shifted by the reflection offsets, which leave the encoded block with no
    stray global phase."""
    chi = np.array(phase_lists, dtype=float)
    chi += _reflection_offsets(chi.shape[1] - 1)
    return chi


def _sweep(a: np.ndarray, phase_lists, start):
    """The output range rows of the products Phi(chi_0) U Phi(chi_1) U^dag
    ... Phi(chi_d) applied to ``start``, for every canonical phase list at
    once, through the encoded block alone: ``a`` is the rank_l x rank_r
    matrix A of ``extract_block``, and no encoding is needed.

    In the projector frames U is U' = F_L^dag U F_R, and each projector phase
    is D(chi) = e^{-i chi} diag(e^{2i chi} I, I) on the first rank rows.
    With E the range(P_R) columns of the identity and U_L the rank_l
    range(P_L) rows of U', the sweep carries the two projections R = E^dag W
    and G = U_L W of the columns W.  U_L has orthonormal rows, so
    U_L U_L^dag = I and U_L E = A, and with t = e^{2i chi} - 1 each step
    reads A alone:
      Phi_R(chi) = I + t E E^dag:               G += t A R,    R *= 1 + t;
      U'^dag Phi_L(chi) U' = I + t U_L^dag U_L:  R += t A^dag G, G *= 1 + t.
    A pair of steps costs 2 rank_l rank_r multiply-adds a column, against
    2 rank_l N for the pair through U_L and 2 N^2 for the dense product.  The
    scalars e^{-i chi} of every list are applied once, at the end.

    ``start`` holds the columns in the range(P_R) basis as (rank_r, cols);
    the product is linear in it, so only the columns a caller reads are
    swept.  The lists share (rank, lists, cols) stacks.  Returns the output
    range rows: R at even degree, in the range(P_R) basis, and D_L(chi_0) G
    at odd degree, in the range(P_L) basis.

    R and G are coordinates in two ranges that are not orthogonal, and
    nearly parallel on a singular pair whose value is near 1.  There the
    rounding grows faster with the degree than in an orthonormal frame:
    about 7e-13 of the block at degree 499 with solved phases, against
    2e-14 for the dense product.  That is far below any solver residual,
    but a dense product built this way is not unitary to UNITARY_TOL (its
    defect reached 2e-11 at degree 283), so ``_full`` keeps the N rows.
    """
    chi = _angles(phase_lists)
    d = chi.shape[1] - 1
    rank_l, rank_r = a.shape
    a_dag = a.conj().T
    turn = np.expm1(2j * chi)[:, :, None]  # (lists, d + 1, 1): e^{2i chi} - 1
    phase = np.exp(2j * chi)[:, :, None]
    r = np.empty((rank_r, len(chi), start.shape[1]), dtype=complex)
    np.multiply(start[:, None], phase[:, d], out=r)
    g = np.empty((rank_l,) + r.shape[1:], dtype=complex)
    ar, ag = np.empty_like(g), np.empty_like(r)  # A R and A^dag G
    width = r.shape[1] * r.shape[2]
    r_stack, g_stack, ar_stack, ag_stack = (
        m.reshape(len(m), width) for m in (r, g, ar, ag)
    )
    np.matmul(a, r_stack, out=g_stack)
    for k in range(d - 1, 0, -2):
        np.matmul(a_dag, g_stack, out=ag_stack)  # the pair about chi_k
        ag *= turn[:, k]
        r += ag
        g *= phase[:, k]
        if k > 1:  # Phi_R(chi_{k-1}); at even degree the last needs no G
            np.matmul(a, r_stack, out=ar_stack)
            ar *= turn[:, k - 1]
            g += ar
        r *= phase[:, k - 1]
    w = g * phase[:, 0] if d % 2 else r
    w *= np.prod(np.exp(-1j * chi), axis=1)[:, None]
    return w


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
    chi = _angles(phase_lists)
    d = chi.shape[1] - 1
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


def _transformed(a: np.ndarray, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re(P)^(SV)(a) @ x for the block a and a canonical phase array, without
    the transform: the sweeps of phases and -phases start from x, of shape
    (a's columns, cols) in the range(P_R) basis."""
    w = _sweep(a, [phases, -phases], x)
    return 0.5 * (w[:, 0] + w[:, 1])


def transformed_block(prog: QsvtProgram) -> np.ndarray:
    """Re(P)^(SV) of the encoded block, in the projector-range bases.

    The block of the real-part circuit, 1/2 (V(phi) + V(-phi)) restricted to
    the ranges of the program's (already validated) encoding: the transform
    applied to the identity of range(P_R), with no ancilla circuit.
    """
    a = extract_block(prog.encoding)
    return _transformed(a, prog.phases.as_array(), np.eye(a.shape[1], dtype=complex))


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
    so this is one engine sweep of the 1x1 block a at the angles
    (0, phi/2, 0); u must be a unitary of dimension at most 1024.
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
    block = np.array([[np.vdot(a0, u @ b0) / (np.linalg.norm(a0) * np.linalg.norm(b0))]])
    chi = np.concatenate([[0.0], phases / 2.0, [0.0]])
    w = _sweep(block, [chi - _reflection_offsets(len(phases) + 1)], np.ones((1, 1)))
    return complex(np.exp(0.5j * phases.sum()) * w[0, 0, 0])
