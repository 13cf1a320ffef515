"""Unitary block encodings of dense operators.

A block encoding locates an operator A (rescaled by alpha) inside a larger
unitary via a pair of orthogonal projectors: A / alpha = P_left U P_right
restricted to the projector ranges.  Constructors here complete Hermitian
and general square matrices into exact unitaries via eigen/singular value
decompositions, and build the phase-oracle and Grover-signal encodings used
by the algorithm layer.  Every composite encoding comes from one of two
builders: ``_complete`` or ``_average``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotHermitian,
    NotProjector,
    NotUnitary,
    ScaleTooSmall,
    _json_field,
)

UNITARY_TOL = 1e-12
PROJECTOR_TOL = 1e-12
HERMITIAN_TOL = 1e-10
DIM_CAP = 2**10


def _require_dim(dim: int, factor: str = "") -> None:
    """DomainError unless dimension ``dim`` fits DIM_CAP, checked before any
    work; ``factor`` names an output dimension derived from n, such as "8n"."""
    if dim > DIM_CAP:
        what = f"output dimension {dim} ({factor})" if factor else f"dimension {dim}"
        raise DomainError(f"{what} exceeds the cap {DIM_CAP}")


def _square(m, error) -> np.ndarray:
    """m as a complex array; ``error`` unless it is a square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error("expected a square matrix")
    return m


# In the three validators an inf entry makes a NaN defect, which fails its check;
# numpy's warnings on the way are silenced so only the typed error surfaces.
@np.errstate(invalid="ignore", over="ignore")
def require_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    u = _square(u, NotUnitary)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not defect <= tol:  # a NaN or inf defect fails too
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")
    return u


def _coordinate_range(projector: np.ndarray) -> np.ndarray | None:
    """Ascending indices j with P = sum_j |j><j| when P is a diagonal 0/1
    matrix (every constructor here makes such projectors), else None."""
    diag = np.diagonal(projector)
    if not np.all((diag == 0) | (diag == 1)):
        return None
    idx = np.flatnonzero(diag)
    if np.count_nonzero(projector) != len(idx):
        return None
    return idx


def _gram_schmidt(projector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(P): Gram-Schmidt over the projector's
    columns in index order."""
    rank = int(round(float(np.real(np.trace(projector)))))
    basis = []
    for j in range(projector.shape[0]):
        if len(basis) == rank:
            break
        v = projector[:, j].copy()
        for b in basis:
            v -= b * (b.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
    return np.array(basis).T if basis else np.zeros((projector.shape[0], 0), dtype=complex)


def _frame(projector: np.ndarray):
    """(rank, F), F read-only: a unitary whose columns are a basis of range(P)
    followed by one of its complement, so that P = F diag(I_rank, 0) F^dag
    and F[..., :rank] holds the range basis.

    F is an index permutation (F = I[:, perm]) for a coordinate projector,
    whose range basis e_j is what Gram-Schmidt gives, and otherwise a dense
    matrix whose range columns are ``_gram_schmidt(P)``.
    """
    idx = _coordinate_range(projector)
    if idx is not None:
        rank, frame = len(idx), np.concatenate([idx, np.flatnonzero(np.diagonal(projector) == 0)])
    else:
        basis = _gram_schmidt(projector)
        rank = basis.shape[1]
        frame = np.hstack([basis, np.linalg.qr(basis, mode="complete")[0][:, rank:]])
    frame.setflags(write=False)
    return rank, frame


def _inverse(frame: np.ndarray) -> np.ndarray:
    """F^dag, in the same form as F."""
    return np.argsort(frame) if frame.dtype.kind == "i" else frame.conj().T


def _into(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows^dag m cols: a gather for permutation frames, products otherwise."""
    m = m[rows] if rows.dtype.kind == "i" else rows.conj().T @ m
    return m[:, cols] if cols.dtype.kind == "i" else m @ cols


def _range_block(u: np.ndarray, left, right) -> np.ndarray:
    """Matrix of u from range(P_R) to range(P_L), in the frames' range bases."""
    (rank_l, frame_l), (rank_r, frame_r) = left, right
    return _into(u, frame_l[..., :rank_l], frame_r[..., :rank_r])


@np.errstate(invalid="ignore", over="ignore")
def require_projector(p: np.ndarray, tol: float = PROJECTOR_TOL) -> np.ndarray:
    p = _square(p, NotProjector)
    if _coordinate_range(p) is not None:
        return p  # both defects of a diagonal 0/1 matrix are exactly 0
    herm = np.max(np.abs(p - p.conj().T))
    idem = np.max(np.abs(p @ p - p))
    if not (herm <= tol and idem <= tol):
        raise NotProjector(
            f"projector defects: hermitian {herm:.3e}, idempotent {idem:.3e}"
        )
    return p


@np.errstate(invalid="ignore", over="ignore")
def require_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    h = _square(h, NotHermitian)
    defect = np.max(np.abs(h - h.conj().T))
    if not defect <= tol:
        raise NotHermitian(f"hermitian defect {defect:.3e} exceeds {tol:.1e}")
    return h


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary plus projectors locating an encoded operator, with scale alpha.

    The encoded operator is alpha * (restriction of U between the projector
    ranges); proj_right selects the input (right singular vector) space and
    proj_left the output space.

    Construction checks the dimension cap first, then U at UNITARY_TOL and
    both projectors at PROJECTOR_TOL; coordinate projectors (diagonal 0/1,
    which every constructor here makes) are checked exactly in O(N^2), any
    other densely.
    It then derives each projector's frame once (``_frame``), stored
    read-only as ``_frame_right`` and ``_frame_left``: the norm check
    against 1 + 1e-10, ``extract_block`` and the QSVT engine all read them.
    """

    unitary: np.ndarray
    proj_right: np.ndarray
    proj_left: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        u = _square(self.unitary, NotUnitary)
        _require_dim(len(u))
        u = require_unitary(u)
        pr = require_projector(self.proj_right)
        pl = require_projector(self.proj_left)
        if pr.shape != u.shape or pl.shape != u.shape:
            raise DomainError("projectors must match the unitary dimension")
        if not 0.0 < self.alpha < np.inf:  # a NaN alpha fails too
            raise DomainError(f"alpha {self.alpha} must be positive and finite")
        right, left = _frame(pr), _frame(pl)
        block = _range_block(u, left, right)
        norm = np.linalg.norm(block, 2) if block.size else 0.0
        if norm > 1.0 + 1e-10:
            raise DomainError(f"encoded block has operator norm {norm:.6f} > 1")
        for name, value in (("unitary", u), ("proj_right", pr), ("proj_left", pl)):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_frame_right", right)
        object.__setattr__(self, "_frame_left", left)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def extract_block(be: BlockEncoding) -> np.ndarray:
    """Matrix of the encoded block (A / alpha) in the projector-range bases."""
    return _range_block(be.unitary, be._frame_left, be._frame_right)


def _lift(p: np.ndarray) -> np.ndarray:
    """|0><0| (x) p: p on the first half of the doubled space."""
    out = np.zeros((2 * len(p), 2 * len(p)), dtype=complex)
    out[: len(p), : len(p)] = p
    return out


def _complete(w: np.ndarray, s: np.ndarray, vh: np.ndarray, alpha: float) -> BlockEncoding:
    """The reflection completion [[A, R], [R, -A]] of qubitization, with
    |0><0| (x) I on both sides.  For unitary W, V and |s| <= 1, A = W diag(s)
    V^dag and R = W diag(sqrt(1 - s^2)) V^dag make it exactly unitary."""
    a = w @ np.diag(s) @ vh
    root = w @ np.diag(np.sqrt(1.0 - s**2)) @ vh
    pi = _lift(np.eye(len(a)))
    return BlockEncoding(np.block([[a, root], [root, -a]]), pi, pi, float(alpha))


def _average(branches, proj_right, proj_left, alpha: float) -> BlockEncoding:
    """Encoding of the mean of 2^k unitaries: (H^(x)k (x) I) diag(branches)
    (H^(x)k (x) I), Hadamards on k ancillas around their select, with both
    projectors lifted to |0..0><0..0| (x) P.  Branch i sits at ancilla index i
    (first ancilla most significant); the cap on 2^k N is checked first."""
    _require_dim(len(branches) * len(branches[0]))
    while len(branches) > 1:
        halves = [(0.5 * (a + b), 0.5 * (a - b)) for a, b in zip(branches[::2], branches[1::2])]
        branches = [np.block([[mean, diff], [diff, mean]]) for mean, diff in halves]
        proj_right, proj_left = _lift(proj_right), _lift(proj_left)
    return BlockEncoding(branches[0], proj_right, proj_left, alpha)


def qubitize_hermitian(h: np.ndarray, alpha: float) -> BlockEncoding:
    """Complete H/alpha into the standard reflection-structured unitary.

    U = [[H~, sqrt(I - H~^2)], [sqrt(I - H~^2), -H~]] with H~ = H / alpha;
    the square root acts per eigenspace.  Projectors are |0><0| (x) I.
    """
    h = require_hermitian(h)
    _require_dim(2 * len(h))
    evals, evecs = np.linalg.eigh(h)
    norm = float(np.max(np.abs(evals))) if len(evals) else 0.0
    if 0.0 <= alpha * (1.0 + 1e-12) < norm:  # alpha = 0 too; a negative alpha fails later
        raise ScaleTooSmall(f"alpha {alpha} below the spectral norm {norm:.6f}")
    lam = np.clip(evals / alpha, -1.0, 1.0)
    return _complete(evecs, lam, evecs.conj().T, alpha)


def embed_general(a: np.ndarray, alpha: float) -> BlockEncoding:
    """SVD-based completion of a square matrix A/alpha into a unitary.

    Off-diagonal blocks are sum_k sqrt(1 - sigma_k^2) |w_k><v_k|, pairing
    left and right singular vectors so the completed matrix is exactly
    unitary.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("embed_general expects a square matrix")
    _require_dim(2 * len(a))
    w, sigma, vh = np.linalg.svd(a)
    if len(sigma) and 0.0 <= alpha * (1.0 + 1e-12) < sigma[0]:
        raise ScaleTooSmall(f"alpha {alpha} below the largest singular value {sigma[0]:.6f}")
    return _complete(w, np.clip(sigma / alpha, 0.0, 1.0), vh, alpha)


def shift_positive(be: BlockEncoding) -> BlockEncoding:
    """Encoding of (block + I)/2 from an encoding of a Hermitian block.

    One ancilla dimension doubles the size: U' = (H (x) I) diag(I, U)
    (H (x) I), whose top-left block is (I + U)/2; restricted to the old
    projectors that is the affine map (block + I)/2.  New projectors are
    |0><0| (x) old.
    """
    # the shifted block (old_block + I)/2 is itself sub-normalized
    return _average([np.eye(be.dim), be.unitary], be.proj_right, be.proj_left, 1.0)


def phase_oracle_block(u: np.ndarray, j: int, theta: float) -> BlockEncoding:
    """Encoding of (I + exp(-2*pi*i*theta) U^(2^j)) / 2.

    The power is computed by repeated squaring; projectors are |0><0| (x) I.
    """
    u = _square(u, NotUnitary)
    _require_dim(2 * len(u))
    u = require_unitary(u, 1e-10)
    if j < 0:
        raise DomainError("power index j must be >= 0")
    power = np.linalg.matrix_power(u, 2**j)
    eye = np.eye(len(u))
    return _average([eye, np.exp(-2j * np.pi * theta) * power], eye, eye, 1.0)


def grover_signal(n: int, a_override: float | None = None) -> BlockEncoding:
    """2x2 reflection with scalar block a = 1/sqrt(N) at the top-left corner.

    Rows act on the marked/unmarked basis and columns on the start basis;
    the 1x1 encoded block is the start-to-marked amplitude.
    """
    if n < 2:
        raise DomainError("search space must have at least 2 elements")
    a = 1.0 / np.sqrt(n) if a_override is None else float(a_override)
    if not 0.0 < a <= 1.0:
        raise DomainError("signal amplitude must lie in (0, 1]")
    return _complete(np.eye(1), np.array([a]), np.eye(1), 1.0)


def projector_phase(proj: np.ndarray, phi: float) -> np.ndarray:
    """exp(i*phi*(2P - I)): phase e^{i phi} on range(P), e^{-i phi} outside."""
    p = require_projector(proj, 1e-10)
    eye = np.eye(p.shape[0], dtype=complex)
    return np.exp(1j * phi) * p + np.exp(-1j * phi) * (eye - p)


# ---------------------------------------------------------------------------
# Serialization


def _matrix_payload(m: np.ndarray) -> dict:
    """JSON object of a matrix: shape and row-major real and imaginary parts."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def matrix_to_json(m: np.ndarray) -> str:
    return json.dumps(_matrix_payload(m), sort_keys=True)


def _matrix_from_payload(payload, what: str) -> np.ndarray:
    rows, cols = (_json_field(payload, key, int, what) for key in ("rows", "cols"))
    re, im = (
        _json_field(payload, key, lambda v: np.array(v, dtype=float).reshape(rows, cols), what)
        for key in ("re", "im")
    )
    return np.stack([re, im], axis=-1).view(complex)[..., 0]  # exact, signed zeros included


def matrix_from_json(text: str) -> np.ndarray:
    return _matrix_from_payload(json.loads(text), "matrix")


_ENCODING_MATRICES = ("unitary", "proj_right", "proj_left")


def encoding_to_json(be: BlockEncoding) -> str:
    payload = {key: _matrix_payload(getattr(be, key)) for key in _ENCODING_MATRICES}
    return json.dumps({**payload, "alpha": be.alpha}, sort_keys=True)


def encoding_from_json(text: str) -> BlockEncoding:
    payload = json.loads(text)
    matrices = [
        _matrix_from_payload(_json_field(payload, key, lambda v: v, "encoding"), f"encoding {key}")
        for key in _ENCODING_MATRICES
    ]
    return BlockEncoding(*matrices, _json_field(payload, "alpha", float, "encoding"))
