"""Unitary block encodings of dense operators.

A block encoding locates an operator A (rescaled by alpha) inside a larger
unitary via a pair of orthogonal projectors: A / alpha = P_left U P_right
restricted to the projector ranges.  Constructors here complete Hermitian
and general square matrices into exact unitaries via eigen/singular value
decompositions, and build the phase-oracle and Grover-signal encodings used
by the algorithm layer.
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


# In the three validators an inf entry makes a NaN defect, which fails its check;
# numpy's warnings on the way are silenced so only the typed error surfaces.
@np.errstate(invalid="ignore", over="ignore")
def require_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitary("expected a square matrix")
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


@np.errstate(invalid="ignore", over="ignore")
def require_projector(p: np.ndarray, tol: float = PROJECTOR_TOL) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise NotProjector("expected a square matrix")
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
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitian("expected a square matrix")
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

    Construction checks U at UNITARY_TOL, both projectors at PROJECTOR_TOL
    and the block's operator norm against 1 + 1e-10.  Coordinate projectors
    (diagonal 0/1, which every constructor here makes) are checked exactly
    in O(N^2), and the norm is taken of the gathered r x c sub-block of U;
    any other projector is checked densely, with the norm of P_left U P_right.
    """

    unitary: np.ndarray
    proj_right: np.ndarray
    proj_left: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        u = require_unitary(self.unitary)
        pr = require_projector(self.proj_right)
        pl = require_projector(self.proj_left)
        if pr.shape != u.shape or pl.shape != u.shape:
            raise DomainError("projectors must match the unitary dimension")
        if u.shape[0] > DIM_CAP:
            raise DomainError(f"dimension {u.shape[0]} exceeds the cap {DIM_CAP}")
        if not 0.0 < self.alpha < np.inf:  # a NaN alpha fails too
            raise DomainError(f"alpha {self.alpha} must be positive and finite")
        rows, cols = _coordinate_range(pl), _coordinate_range(pr)
        if rows is not None and cols is not None:
            block = u[np.ix_(rows, cols)]
        else:
            block = pl @ u @ pr
        norm = np.linalg.norm(block, 2) if block.size else 0.0
        if norm > 1.0 + 1e-10:
            raise DomainError(f"encoded block has operator norm {norm:.6f} > 1")
        for name, value in (("unitary", u), ("proj_right", pr), ("proj_left", pl)):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def _range_basis(projector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(P), deterministic by ascending column index.

    For a coordinate projector that is the standard basis vectors e_j, which
    is exactly what the Gram-Schmidt loop gives; other projectors run it.
    """
    idx = _coordinate_range(projector)
    if idx is not None:
        return np.eye(projector.shape[0], dtype=projector.dtype)[:, idx]
    return _gram_schmidt(projector)


def _gram_schmidt(projector: np.ndarray) -> np.ndarray:
    """Gram-Schmidt over the projector's columns in index order."""
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


def _restrict(m: np.ndarray, proj_left: np.ndarray, proj_right: np.ndarray) -> np.ndarray:
    """Matrix of m from range(proj_right) to range(proj_left), in their bases."""
    return _range_basis(proj_left).conj().T @ m @ _range_basis(proj_right)


def extract_block(be: BlockEncoding) -> np.ndarray:
    """Matrix of the encoded block (A / alpha) in the projector-range bases."""
    return _restrict(be.unitary, be.proj_left, be.proj_right)


def _select(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hadamard-select combiner (H (x) I) diag(a, b) (H (x) I), which equals
    1/2 [[a + b, a - b], [a - b, a + b]]."""
    mean = 0.5 * (a + b)
    half_diff = 0.5 * (a - b)
    return np.block([[mean, half_diff], [half_diff, mean]])


def _lift(p: np.ndarray) -> np.ndarray:
    """|0><0| (x) p: p on the first half of the doubled space."""
    d = p.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = p
    return out


def qubitize_hermitian(h: np.ndarray, alpha: float) -> BlockEncoding:
    """Complete H/alpha into the standard reflection-structured unitary.

    U = [[H~, sqrt(I - H~^2)], [sqrt(I - H~^2), -H~]] with H~ = H / alpha;
    the square root acts per eigenspace.  Projectors are |0><0| (x) I.
    """
    h = require_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    norm = float(np.max(np.abs(evals))) if len(evals) else 0.0
    if norm / alpha > 1.0 + 1e-12:
        raise ScaleTooSmall(f"alpha {alpha} below the spectral norm {norm:.6f}")
    lam = np.clip(evals / alpha, -1.0, 1.0)
    root = evecs @ np.diag(np.sqrt(1.0 - lam**2)) @ evecs.conj().T
    ht = evecs @ np.diag(lam) @ evecs.conj().T
    u = np.block([[ht, root], [root, -ht]])
    pi = _lift(np.eye(h.shape[0]))
    return BlockEncoding(u, pi, pi, float(alpha))


def embed_general(a: np.ndarray, alpha: float) -> BlockEncoding:
    """SVD-based completion of a square matrix A/alpha into a unitary.

    Off-diagonal blocks are sum_k sqrt(1 - sigma_k^2) |w_k><v_k|, pairing
    left and right singular vectors so the completed matrix is exactly
    unitary.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("embed_general expects a square matrix")
    w, sigma, vh = np.linalg.svd(a)
    if len(sigma) and sigma[0] / alpha > 1.0 + 1e-12:
        raise ScaleTooSmall(f"alpha {alpha} below the largest singular value {sigma[0]:.6f}")
    sig = np.clip(sigma / alpha, 0.0, 1.0)
    at = w @ np.diag(sig) @ vh
    root = w @ np.diag(np.sqrt(1.0 - sig**2)) @ vh
    u = np.block([[at, root], [root, -at]])
    pi = _lift(np.eye(a.shape[0]))
    return BlockEncoding(u, pi, pi, float(alpha))


def shift_positive(be: BlockEncoding) -> BlockEncoding:
    """Encoding of (block + I)/2 from an encoding of a Hermitian block.

    One ancilla dimension doubles the size: U' = (H (x) I) diag(I, U)
    (H (x) I), whose top-left block is (I + U)/2; restricted to the old
    projectors that is the affine map (block + I)/2.  New projectors are
    |0><0| (x) old.
    """
    upper = _select(np.eye(be.dim), be.unitary)
    # the shifted block (old_block + I)/2 is itself sub-normalized
    return BlockEncoding(upper, _lift(be.proj_right), _lift(be.proj_left), 1.0)


def phase_oracle_block(u: np.ndarray, j: int, theta: float) -> BlockEncoding:
    """Encoding of (I + exp(-2*pi*i*theta) U^(2^j)) / 2.

    The power is computed by repeated squaring; projectors are |0><0| (x) I.
    """
    u = require_unitary(np.asarray(u, dtype=complex), 1e-10)
    if j < 0:
        raise DomainError("power index j must be >= 0")
    power = u.copy()
    for _ in range(j):
        power = power @ power
    w = _select(np.eye(u.shape[0]), np.exp(-2j * np.pi * theta) * power)
    pi = _lift(np.eye(u.shape[0]))
    return BlockEncoding(w, pi, pi, 1.0)


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
    s = np.sqrt(1.0 - a * a)
    w = np.array([[a, s], [s, -a]], dtype=complex)
    pi = _lift(np.eye(1))
    return BlockEncoding(w, pi, pi, 1.0)


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
    return re + 1j * im


def matrix_from_json(text: str) -> np.ndarray:
    return _matrix_from_payload(json.loads(text), "matrix")


def encoding_to_json(be: BlockEncoding) -> str:
    return json.dumps(
        {
            "unitary": _matrix_payload(be.unitary),
            "proj_right": _matrix_payload(be.proj_right),
            "proj_left": _matrix_payload(be.proj_left),
            "alpha": be.alpha,
        },
        sort_keys=True,
    )


def encoding_from_json(text: str) -> BlockEncoding:
    payload = json.loads(text)
    matrices = [
        _matrix_from_payload(_json_field(payload, key, lambda v: v, "encoding"), f"encoding {key}")
        for key in ("unitary", "proj_right", "proj_left")
    ]
    return BlockEncoding(*matrices, _json_field(payload, "alpha", float, "encoding"))
