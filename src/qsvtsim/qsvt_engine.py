"""Singular value transformation of block-encoded operators.

Applies a canonical-convention phase sequence to a block encoding as an
alternating product V(phi) of U, its inverse, and projector-controlled
phase rotations.  By Jordan's lemma the product acts on each singular
pair's invariant space, of dimension 1 or 2, as the 2x2 QSP product at that
singular value, so what a caller reads of it depends only on the encoded
block A: ``transformed_block`` reads the SVD its encoding stores and the QSP
response of ``qsp_core`` at its singular values, as amplitude amplification,
the threshold and phase estimation read their blocks' own decompositions.
``_full``, the dense product for the callers that need the unitary, reads a
reflection completion's in closed form from the factors it stores, four
n x n products a phase list with the QSP unitaries at its singular values,
and any other encoding's in one eigenframe of the product of the two
reflections, about range(P_R) and U^dag range(P_L), with ``qsp_core``'s QSP
unitaries at its eigenphases.  A completion's products carry a bound on
their unitarity defect from its checked factors, by the rule that bounds
its own U's (``block_encoding._product_bound``).  ``_average_products``
is the one real-part circuit, of ``real_part_encoding`` and of search,
Hamiltonian simulation and inversion: it pairs each phase list with its
negation, reads out at P_L at odd degree and P_R at even, and takes the
mean of its branches' bounds.  The reflection offsets of
``qsp_core`` map the stored QSP phases onto projector phases, so the
encoded block of V(phi) is exactly the sequence's P polynomial applied to
the singular values.  The real part, which is the
solver's target, is read as 1/2 (block(phi) + block(-phi)), with no
ancilla; ``real_part_encoding`` builds the one-ancilla Hadamard-select
circuit only for callers that need the full unitary.  Independent eigen-
and SVD-based oracles are provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_encoding import (BlockEncoding, _average, _completion_factors, _eigenframe, _into,
                             _inverse, _product_bound, _require_dim, _require_finite, _square,
                             require_hermitian, require_unitary)
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

    Each kind of input has one route.  A reflection completion (``_complete``)
    is read in closed form from its stored factors A = W diag(s) V^dag,
    s signed, which were checked at UNITARY_TOL when it was built, so it
    takes no Newton-Schulz step and forms no U.  By Jordan's lemma
    U = [[A, R], [R, -A]] maps each pair (e_0 (x) v_k, e_1 (x) v_k) to
    (e_0 (x) w_k, e_1 (x) w_k) by the 2x2 reflection [[s_k, c_k], [c_k,
    -s_k]], c = sqrt(1 - s^2), and Phi_R and Phi_L are diagonal in those
    pairs.  So an even degree's product has quadrant (i, j) =
    V diag(E_ij) V^dag, E the reflection-convention QSP unitaries of the
    phases at the nodes of s; an odd degree's has e^{i chi_0} W diag(s E_0j +
    c E_1j) V^dag in block row 0 and e^{-i chi_0} W diag(c E_0j - s E_1j)
    V^dag in block row 1.  That is four n x n products a list and no
    decomposition.  (One route for every input was the rule while no
    encoding held its factors.)

    Any other encoding (a caller's dense U, one read from JSON, an average)
    is read in one eigenframe.  In the frames, U' is first taken one
    Newton-Schulz step to the nearest matrix with orthonormal rows, so that
    its range rows U_L give a reflection 2 U_L^dag U_L - I to rounding,
    whatever the input's defect.  On each invariant piece of x in range(P_R)
    and y outside it, at singular value s = cos theta, an even degree's
    product is E at s, and W = (2 P_R - I) (2 U_L^dag U_L - I) is the
    rotation by -2 theta, with eigenvectors (x +- i y) / sqrt 2 at
    e^{+-2i theta}.  So at each eigenphase omega of one ``_eigenframe`` of W,
    with theta = |omega| / 2 and sigma = sign omega, V is E00 + i sigma E01
    on range(P_R) and E11 - i sigma E10 outside it.  Nothing is divided by
    sin theta, and E is diagonal at theta = 0 and pi / 2, where eigenvalues
    cluster.  An odd degree ends with U' and Phi_L(chi_0) on the left of its
    even part.
    """
    if enc._factors is not None:
        return [product[0] for product in _reflection_products(enc, phase_lists)]
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
        chi0, odd, e = _even_part(phases, nodes)
        v = q * (e[:, 0, 0] + 1j * sigma * e[:, 0, 1])
        v[rank_r:] = q[rank_r:] * (e[:, 1, 1] - 1j * sigma * e[:, 1, 0])
        v = v @ q.conj().T
        if odd:
            v = u @ v
            v[:rank_l] *= np.exp(1j * chi0)
            v[rank_l:] *= np.exp(-1j * chi0)
        products.append(_into(v, _inverse(frame_l if odd else frame_r), _inverse(frame_r)))
    return products


def _even_part(phases, nodes):
    """(chi_0, odd, E) of a canonical phase list: its first projector angle,
    whether its degree is odd, and the reflection-convention QSP unitaries
    of its even part, the angles after chi_0 at odd degree, at ``nodes``."""
    chi = np.asarray(phases, dtype=float) + _reflection_offsets(len(phases) - 1)
    odd = len(chi) % 2 == 0
    return chi[0], odd, _unitaries(PhaseSequence(tuple(chi[odd:]), Convention.reflection()), nodes)


def _reflection_products(enc: BlockEncoding, phase_lists, out=None):
    """``_full`` of a reflection completion, from its factors, each product
    B with its certificate: a list of (B, bound, L, g).  Both projectors
    are |0><0| (x) I, so the frames are the identity.  Product r is
    written into out[r] when ``out`` is given, else into a new array.

    Quadrant (i, j) of B is L diag(E_ij) V^dag, one n x n product written
    straight into it, with L = V at even degree and W at odd (one array at
    either parity when V = W), so quadrant (0, 0), the block between the
    ranges, is L diag(g) V^dag with g = E_00.

    ``bound`` bounds B's unitarity defect by the rule that bounds the
    completion's own U (``_product_bound``)."""
    w, s, vh = _completion_factors(enc)
    delta = enc._factors[2]
    n, c = len(s), np.sqrt(1.0 - s**2)
    reflections = np.array([[s, c], [c, -s]]).transpose(2, 0, 1)
    v = w if enc._factors[0] is None else vh.conj().T
    products = []
    for r, phases in enumerate(phase_lists):
        chi0, odd, e = _even_part(phases, s + 1j * c)  # the nodes e^{i theta}, s = cos theta
        if odd:  # U', then Phi_L(chi_0): a phase on each block row
            e = (reflections @ e) * np.exp([[1j * chi0], [-1j * chi0]])
        left = w if odd else v
        b = np.empty((2 * n, 2 * n), dtype=complex) if out is None else out[r]
        for i in range(2):
            for j in range(2):
                np.matmul(left * e[:, i, j], vh, out=b[i * n : (i + 1) * n, j * n : (j + 1) * n])
        products.append((b, _product_bound(delta, e, n), left, e[:, 0, 0]))
    return products


def _average_products(enc: BlockEncoding, phase_lists, alpha: float, weights=()):
    """The real-part circuit, the one QSVT circuit of search, Hamiltonian
    simulation and inversion: ``_average`` of the dense products V(phi_0),
    V(-phi_0), V(phi_1), V(-phi_1), ... of the canonical ``phase_lists`` on
    ``enc``, pair i times weights[i] when weights are given, so its block is
    the weighted mean of the real parts 1/2 (V(phi_i) + V(-phi_i)).  One
    readout rule: the ancillas are read out from enc's P_R to its P_L when
    the first list's degree is odd, where an odd transform leaves the right
    singular space, else to its P_R.

    A completion's products are written straight into the average's head,
    with their bounds (``_reflection_products``), whose mean ``_average``
    takes as its certificate, and, when their blocks share one left factor
    L (one parity, or V = W), with the factors (L, g_i, V^dag) of their
    blocks L diag(g_i) V^dag, from which ``_average`` reads its block's SVD.
    Any other encoding's products are measured there, once each."""
    (right, left), m = enc._projectors, 2 * len(phase_lists)
    readout = left if len(phase_lists[0]) % 2 == 0 else right  # odd degree: even length
    lists = [branch for phases in phase_lists for branch in (phases, -phases)]
    scales = [c for c in weights or (1,) * len(phase_lists) for _ in range(2)]
    if enc._factors is None:
        products = [v if c == 1 else c * v for c, v in zip(scales, _full(enc, lists))]
        return _average(products, right, readout, alpha)
    _require_dim(m * enc.dim)
    head = np.empty((enc.dim, m, enc.dim), dtype=complex)  # branch r at head[:, r]
    products = _reflection_products(enc, lists, [head[:, r] for r in range(m)])
    for c, (v, _, _, g) in zip(scales, products):
        if c != 1:  # scaled in place, as c * v
            np.multiply(c, v, out=v)
            np.multiply(c, g, out=g)
    _, bounds, lefts, diagonals = zip(*products)
    factors = None
    if all(factor is lefts[0] for factor in lefts):
        factors = (lefts[0], np.array(diagonals), enc._block_svd[2])
    return _average(head, right, readout, alpha, bounds=bounds, factors=factors)


def qsvt_unitary(prog: QsvtProgram) -> np.ndarray:
    """Full product unitary; its block is the complex polynomial P^(SV)."""
    return _full(prog.encoding, [prog.phases.as_array()])[0]


def real_part_encoding(prog: QsvtProgram) -> BlockEncoding:
    """One-ancilla circuit whose block is Re(P) applied to singular values.

    Hadamards around a branch select of the phase sequence and its phase
    conjugate average the two complex blocks, leaving the real part; by
    the one readout rule of ``_average_products`` the ancilla is read out
    in the |0> slot of P_L at odd degree, where the transform leaves the
    right singular vector space, else of P_R.
    """
    return _average_products(prog.encoding, [prog.phases.as_array()], prog.encoding.alpha)


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
