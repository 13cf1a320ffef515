"""Unitary block encodings of dense operators.

A block encoding locates an operator A (rescaled by alpha) inside a larger
unitary via a pair of orthogonal projectors: A / alpha = P_left U P_right
restricted to the projector ranges.  Constructors here complete Hermitian
and general square matrices into exact unitaries via eigen/singular value
decompositions, and build the phase-oracle and Grover-signal encodings.
Every composite encoding comes from one of two builders: ``_complete`` or
``_average``.  They and the public constructor store an encoding through
one routine, ``BlockEncoding.__post_init__``.  The builders hand in the
coordinate projectors |0..0><0..0| (x) I they make as their sorted range
indices, so no N x N projector is formed, checked or scanned; a caller
that reads ``proj_right`` or ``proj_left`` gets the dense array, built at
first read.  ``_average`` writes U into one preallocated array.
``_complete`` checks and keeps its block's factors and forms U at its
first read, so a caller that reads only the block (``transformed_block``)
never forms it; the algorithms, the dense products and the codec read U.
A caller that reads only a Hermitian
block builds no encoding: ``_scaled_eigh`` gives the spectrum that
``qubitize_hermitian`` encodes.  ``_eigenframe`` is the one decomposition
of a unitary: phase estimation reads U in it, and the QSVT engine its two
reflections' product.

Matrices and encodings serialize to JSON through one writer that yields the
text in pieces of a bounded number of list entries (``_encoding_chunks``):
``encoding_to_json`` joins them, and the CLI streams them to a file.  An
index projector's lists are written from its indices.  An average's U,
whose block (p, q) is its block (0, p xor q), is written from that first
block row (``_tiled_chunks``): each distinct value formatted and each
row of each tile joined once, then copied into every block row.
"""

from __future__ import annotations

import functools
import json

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
        raise error(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_finite(m: np.ndarray) -> None:
    """DomainError unless every entry of m is finite, checked before an SVD,
    which does not converge on a NaN."""
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")


def _gram_defect(gram: np.ndarray) -> float:
    """max |G - I| of a Gram matrix G, formed in place; NaN if G holds one."""
    gram[np.diag_indices(len(gram))] -= 1.0
    return float(np.max(np.abs(gram)))


def _require_defect(defect: float, tol: float = UNITARY_TOL, what: str = "unitarity") -> None:
    if not defect <= tol:  # a NaN or inf defect fails too
        raise NotUnitary(f"{what} defect {defect:.3e} exceeds {tol:.1e}")


# In the three validators an inf entry makes a NaN defect, which fails its check;
# numpy's warnings on the way are silenced so only the typed error surfaces.
@np.errstate(invalid="ignore", over="ignore")
def require_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    u = _square(u, NotUnitary)
    _require_defect(_gram_defect(u.conj().T @ u), tol)
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


def _frame(projector: np.ndarray, dim: int):
    """(rank, F), F read-only: a unitary whose columns are a basis of range(P)
    followed by one of its complement, so that P = F diag(I_rank, 0) F^dag
    and F[..., :rank] holds the range basis.

    F is an index permutation (F = I[:, perm]: the range indices, then the
    rest ascending) for a coordinate projector, whose range basis e_j is what
    Gram-Schmidt gives: one held as its sorted range indices (an
    assembler's) or a dense diagonal 0/1 matrix.  Otherwise F is a dense
    matrix whose range columns are ``_gram_schmidt(P)``.
    """
    idx = projector if projector.ndim == 1 else _coordinate_range(projector)
    if idx is not None:
        outside = np.ones(dim, dtype=bool)
        outside[idx] = False
        rank, frame = len(idx), np.concatenate([idx, np.flatnonzero(outside)])
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


def _eigenframe(u: np.ndarray):
    """(Q, phi) of a unitary u = Q diag(exp(2 pi i phi)) Q^dag, phi in [0, 1).
    +-arccos of the eigenvalues of (u + u^dag) / 2 hold every eigenphase, so
    -1 turned into the middle of their widest gap keeps I + V invertible;
    ``eigh`` of the Cayley transform i (I + V)^-1 (I - V) gives Q, orthonormal
    also on a degenerate spectrum (``np.linalg.eig`` is not).  phi comes from
    the Rayleigh quotients q^dag u q, which carry u's rounding alone."""
    angles = np.arccos(np.clip(np.linalg.eigvalsh(0.5 * (u + u.conj().T)), -1.0, 1.0))
    points = np.sort(np.concatenate([angles, 2.0 * np.pi - angles]))
    gaps = np.diff(points, append=points[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    v, eye = np.exp(1j * (np.pi - points[k] - 0.5 * gaps[k])) * u, np.eye(len(u))
    h = 1j * np.linalg.solve(eye + v, eye - v)
    q = np.linalg.eigh(0.5 * (h + h.conj().T))[1]
    phi = (np.angle(np.einsum("ij,ij->j", q.conj(), u @ q)) / (2.0 * np.pi)) % 1.0
    return q, np.where(phi < 1.0, phi, 0.0)  # a rounded -0 turn lands on 1.0


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


def _dense_projector(p: np.ndarray, dim: int) -> np.ndarray:
    """A stored projector as an N x N array: as given, or for sorted range
    indices the diagonal 0/1 matrix, built read-only."""
    if p.ndim == 1:
        idx, p = p, np.zeros((dim, dim), dtype=complex)
        p[idx, idx] = 1.0
        p.setflags(write=False)
    return p


class BlockEncoding:
    """Unitary plus projectors locating an encoded operator, with scale alpha.

    The encoded operator is alpha * (restriction of U between the projector
    ranges); proj_right selects the input (right singular vector) space and
    proj_left the output space.  An encoding is read-only: writing or
    deleting an attribute raises AttributeError.  Encodings compare and
    hash by identity.

    The constructor checks the dimension cap first, then U at UNITARY_TOL
    and both projectors at PROJECTOR_TOL (one projector object passed on
    both sides is checked once); coordinate projectors (diagonal 0/1) are
    checked exactly in O(N^2), any other densely.  It stores a copy of each
    array as given.

    Every construction, the constructor's and the two assemblers'
    (``_complete`` and ``_average``), ends in one store routine,
    ``__post_init__``.  It derives each projector's frame once (``_frame``)
    and takes the block's SVD once, unless an assembler hands it in, and
    stores them read-only: ``_frame_right`` and ``_frame_left``, which
    ``extract_block`` and the QSVT engine read (a projector shared by both
    sides stays one object, with one frame), and ``_block_svd`` =
    (W, s, V^dag) with s >= 0 and W diag(s) V^dag the block, which the norm
    check (max s against 1 + 1e-10) and ``transformed_block`` read.
    ``_projectors`` holds (right, left) as stored: arrays, or the sorted
    range indices of the coordinate projectors the assemblers make, which
    are framed with no N x N array formed or checked.  ``dim`` is the
    dimension.

    ``_tiles`` is the branch count m of an average (1 for every other
    encoding): its U is m x m tiles, block (p, q) equal to block
    (0, p xor q), and the codec writes U's lists from that first block row.

    ``unitary``, its unitarity defect ``_defect``, ``proj_right`` and
    ``proj_left`` are cached properties.  The constructor and ``_average``
    store U and the defect they measured.  ``_complete`` stores the
    block's factors (``_factors``), checked unitary, and no U: U is formed
    from them (``_form``) at the first read of either, and its defect
    checked at UNITARY_TOL then, so a caller that reads only the block,
    its SVD, the frames or ``dim`` never forms the 2n x 2n array.  A dense
    projector is read as stored, and one held as indices is built at its
    first read (one array for a projector shared by both sides).
    """

    @np.errstate(invalid="ignore", over="ignore")  # a NaN defect fails its check
    def __init__(self, unitary, proj_right, proj_left, alpha: float = 1.0):
        u = _square(unitary, NotUnitary)
        _require_dim(len(u))
        defect = _gram_defect(u.conj().T @ u)
        _require_defect(defect)
        shared = proj_left is proj_right
        right = require_projector(proj_right)
        left = right if shared else require_projector(proj_left)
        if any(p.shape != u.shape for p in (right, left)):
            raise DomainError("projectors must match the unitary dimension")
        right = right.copy()
        left = right if shared else left.copy()
        self.__post_init__(len(u), right, left, alpha, unitary=u.copy(), defect=defect)

    # A dataclass's hook name on a plain class: the benchmark's tracer
    # (perfbench/tracing.py) wraps BlockEncoding.__post_init__ by name to
    # count and time every construction, then reads .unitary of its first
    # argument, so under another name every traced round fails with
    # AttributeError.  Every construction therefore calls it by this name.
    def __post_init__(self, dim: int, right: np.ndarray, left: np.ndarray, alpha: float, *,
                      svd=None, unitary=None, defect=None, factors=None,
                      tiles: int = 1) -> BlockEncoding:
        """Check alpha and the block norm and store the fields of a checked
        U (``unitary`` and its ``defect``) or of checked ``factors``
        (W or None, s), with projectors as arrays or range indices, one
        object when shared; ``svd`` is the block's, when the caller has it,
        and ``tiles`` the branch count of an average's U (``_tiles``)."""
        if not 0.0 < alpha < np.inf:  # a NaN alpha fails too
            raise DomainError(f"alpha {alpha} must be positive and finite")
        frame_right = _frame(right, dim)
        frame_left = frame_right if left is right else _frame(left, dim)
        if svd is None:
            svd = np.linalg.svd(_range_block(unitary, frame_left, frame_right))
        norm = float(np.max(svd[1], initial=0.0))
        if norm > 1.0 + 1e-10:
            raise DomainError(f"encoded block has operator norm {norm:.6f} > 1")
        for value in (right, left, *svd, unitary, *(factors or ())):
            if value is not None:  # a completion's W may be read back from V^dag
                value.setflags(write=False)
        self.__dict__.update(alpha=alpha, dim=dim, _projectors=(right, left),
                             _frame_right=frame_right, _frame_left=frame_left,
                             _block_svd=tuple(svd), _factors=factors, _tiles=tiles)
        if unitary is not None:
            self.__dict__.update(unitary=unitary, _defect=defect)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"BlockEncoding is read-only: cannot write {name!r}")

    __delattr__ = __setattr__

    @functools.cached_property
    def unitary(self) -> np.ndarray:
        """U, formed for a completion from its factors at the first read,
        which checks its defect and caches it as ``_defect``."""
        w, s = self._factors
        vh = self._block_svd[2]
        u, defect = _form(vh.conj().T if w is None else w, s, vh)
        _require_defect(defect)
        u = np.asarray(u, dtype=complex)
        u.setflags(write=False)
        self.__dict__["_defect"] = defect
        return u

    @functools.cached_property
    def _defect(self) -> float:
        self.unitary  # a completion's first read of U sets it
        return self.__dict__["_defect"]

    @functools.cached_property
    def proj_right(self) -> np.ndarray:
        return _dense_projector(self._projectors[0], self.dim)

    @functools.cached_property
    def proj_left(self) -> np.ndarray:
        right, left = self._projectors
        return self.proj_right if left is right else _dense_projector(left, self.dim)


def extract_block(be: BlockEncoding) -> np.ndarray:
    """Matrix of the encoded block (A / alpha) in the projector-range bases."""
    return _range_block(be.unitary, be._frame_left, be._frame_right)


def _lift(p: np.ndarray, copies: int) -> np.ndarray:
    """|0..0><0..0| (x) p on ``copies`` (a power of 2) times p's space, the
    ancillas most significant: p on the first block.  A projector held as
    its sorted range indices keeps them; a dense one is zero-filled."""
    if p.ndim == 1:
        return p
    out = np.zeros((copies * len(p), copies * len(p)), dtype=complex)
    out[: len(p), : len(p)] = p
    return out


def _form(w: np.ndarray, s: np.ndarray, vh: np.ndarray):
    """(U, defect) of the reflection completion [[A, R], [R, -A]] with
    A = W diag(s) V^dag and R = W diag(sqrt(1 - s^2)) V^dag: A and R are
    multiplied straight into U's quadrants, and -A and R copied into the
    other two.  U^dag U - I is [[A^dag A + R^dag R - I, A^dag R - R^dag A],
    [R^dag A - A^dag R, A^dag A + R^dag R - I]], so its largest entry, the
    defect, comes from three n x n products of the quadrants in place of
    the 2n x 2n Gram matrix."""
    n = len(s)
    u = np.empty((2 * n, 2 * n), dtype=np.result_type(w, s, vh))
    a, root = u[:n, :n], u[:n, n:]
    np.matmul(w * s, vh, out=a)
    np.matmul(w * np.sqrt(1.0 - s**2), vh, out=root)
    np.negative(a, out=u[n:, n:])
    u[n:, :n] = root
    cross = a.conj().T @ root
    defect = float(np.max([_gram_defect(a.conj().T @ a + root.conj().T @ root),
                           np.max(np.abs(cross - cross.conj().T))]))
    return u, defect


@np.errstate(invalid="ignore", over="ignore")
def _complete(w: np.ndarray, s: np.ndarray, vh: np.ndarray | None,
              alpha: float) -> BlockEncoding:
    """The reflection completion [[A, R], [R, -A]] of qubitization, with
    |0><0| (x) I on both sides, held as the indices range(n).  For unitary W,
    V and |s| <= 1, A = W diag(s) V^dag and R = W diag(sqrt(1 - s^2)) V^dag
    make it exactly unitary.  ``vh`` None means V = W (the eigenvectors of
    ``qubitize_hermitian``).

    The factors are checked in place of U: max |W^dag W - I| and
    max |V V^dag - I| at UNITARY_TOL (one Gram when V = W), and |s| <= 1,
    each raising ``NotUnitary`` that names it; no U is formed.  The
    encoding holds the block's SVD (W sign(s), |s|, V^dag) (a negative s,
    an eigenvalue of ``qubitize_hermitian``, folds its sign into W) and
    forms U from W and s at its first read (``_form``), which also measures
    and checks U's own defect.  The sign is folded only when some s has its
    sign bit set, so the SVD's W is W itself when none has (a complex
    W (1 + 0j) can flip the sign of a zero part, and a zero's sign can
    reach U); when V = W, W is read back as (V^dag)^dag."""
    hermitian = vh is None
    if hermitian:
        vh = w.conj().T
    _require_defect(_gram_defect(w.conj().T @ w), what="factor W unitarity")
    if not hermitian:
        _require_defect(_gram_defect(vh.conj().T @ vh), what="factor V unitarity")
    if not np.all(np.abs(s) <= 1.0):  # a NaN fails too
        raise NotUnitary(f"factor s has |s| = {np.max(np.abs(s)):.3e} > 1")
    folded = w * np.copysign(1.0, s) if np.signbit(s).any() else w
    pi = np.arange(len(s))
    return object.__new__(BlockEncoding).__post_init__(
        2 * len(s), pi, pi, float(alpha), svd=(folded, np.abs(s), vh),
        factors=(None if hermitian else w, s))  # V = W is read back from V^dag


@np.errstate(invalid="ignore", over="ignore")
def _average(branches, proj_right, proj_left, alpha: float) -> BlockEncoding:
    """Encoding of the mean of 2^k unitaries: (H^(x)k (x) I) diag(branches)
    (H^(x)k (x) I), Hadamards on k ancillas around their select, with both
    projectors lifted to |0..0><0..0| (x) P (``_lift``: sorted range indices
    stay as they are, and one lift serves both sides when both pass the same
    projector object).  Branch i sits at ancilla index i (first ancilla most
    significant); the cap on 2^k N is checked first.

    U's block (p, q) is C_(p xor q), C the Walsh-Hadamard transform of the
    branches taken by k levels of half-sums (x + y) / 2, (x - y) / 2.  The
    levels run in place in U's first block row, and the other rows are
    copied from it.  The encoding keeps m as ``_tiles``, so the codec
    writes U's lists from that first block row, 1/m of U's entries.

    U^dag U - I = (H^(x)k (x) I) diag(E_i) (H^(x)k (x) I) with E_i = B_i^dag
    B_i - I, so its block (p, q) is sum_i (-1)^(popcount((p xor q) and i))
    E_i / 2^k: the Walsh-Hadamard transform of the branch Grams, taken by
    half-sums as U is.  That costs N^3 / 4^k for U of dimension N.
    U itself is formed by k rounded half-sums an entry, each entry off by at
    most k u times the mean of its branch entries' magnitudes (u = 2^-53),
    so its Gram matrix differs from the exact one by at most
    2^(k/2 + 1) k u (1 + e), e the larger of the branch and average defects,
    to first order in u; twice that bound is the ``rounding`` checked with
    the defect."""
    m, n = len(branches), len(branches[0])
    _require_dim(m * n)
    k, diag = m.bit_length() - 1, np.arange(n)
    errors = np.stack([b.conj().T @ b for b in branches])
    errors[:, diag, diag] -= 1.0
    branch_defect = float(np.max(np.abs(errors)))
    for _ in range(k):
        errors = np.concatenate([0.5 * (errors[::2] + errors[1::2]),
                                 0.5 * (errors[::2] - errors[1::2])])
    defect = float(np.max(np.abs(errors)))
    rounding = 2.0 ** (k / 2 + 1) * k * np.finfo(float).eps * (1.0 + max(defect, branch_defect))
    u = np.empty((m * n, m * n), dtype=complex)
    head = u[:n].reshape(n, m, n)  # head[:, r] is U's block (0, r)
    for r, branch in enumerate(branches):
        head[:, r] = branch
    for level in range(k):  # pairs r, r + 2^level within each run of 2^(level + 1)
        pairs = head.reshape(n, m >> (level + 1), 2, 1 << level, n)
        x, y = pairs[:, :, 0], pairs[:, :, 1]
        total = x + y
        np.subtract(x, y, out=y)
        np.multiply(0.5, y, out=y)
        np.multiply(0.5, total, out=x)
    for p in range(1, m):
        for q in range(m):
            u[p * n : (p + 1) * n, q * n : (q + 1) * n] = head[:, p ^ q]
    _require_defect(defect + rounding)
    right = _lift(proj_right, m)
    left = right if proj_left is proj_right else _lift(proj_left, m)
    return object.__new__(BlockEncoding).__post_init__(m * n, right, left, alpha, unitary=u,
                                                       defect=defect, tiles=m)


def qubitize_hermitian(h: np.ndarray, alpha: float) -> BlockEncoding:
    """Complete H/alpha into the standard reflection-structured unitary.

    U = [[H~, sqrt(I - H~^2)], [sqrt(I - H~^2), -H~]] with H~ = H / alpha;
    the square root acts per eigenspace.  Projectors are |0><0| (x) I.
    """
    h = _square(h, NotHermitian)
    _require_dim(2 * len(h))
    evecs, lam = _scaled_eigh(h, alpha)
    return _complete(evecs, lam, None, alpha)


def _scaled_eigh(h: np.ndarray, alpha: float):
    """(eigenvectors, eigenvalues / alpha clipped into [-1, 1]) of a checked
    Hermitian h: the spectrum that ``qubitize_hermitian`` encodes, for
    callers that read only its block H / alpha.  ScaleTooSmall if alpha is
    below the spectral norm, DomainError unless it is positive and finite."""
    h = require_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    norm = float(np.max(np.abs(evals))) if len(evals) else 0.0
    if 0.0 <= alpha * (1.0 + 1e-12) < norm:  # alpha = 0 too
        raise ScaleTooSmall(f"alpha {alpha} below the spectral norm {norm:.6f}")
    if not 0.0 < alpha < np.inf:  # a NaN alpha fails too
        raise DomainError(f"alpha {alpha} must be positive and finite")
    return evecs, np.clip(evals / alpha, -1.0, 1.0)


def embed_general(a: np.ndarray, alpha: float) -> BlockEncoding:
    """SVD-based completion of a square matrix A/alpha into a unitary.

    Off-diagonal blocks are sum_k sqrt(1 - sigma_k^2) |w_k><v_k|, pairing
    left and right singular vectors so the completed matrix is exactly
    unitary.
    """
    a = _square(a, DomainError)
    _require_dim(2 * len(a))
    _require_finite(a)
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
    return _average([np.eye(be.dim), be.unitary], *be._projectors, 1.0)


def phase_oracle_block(u: np.ndarray, j: int, theta: float) -> BlockEncoding:
    """Encoding of (I + exp(-2*pi*i*theta) U^(2^j)) / 2, the Hadamard average
    of I and the phased power, projectors |0><0| (x) I.  U^(2^j) comes from j
    squarings, bit for bit ``np.linalg.matrix_power``'s, each held to 2
    UNITARY_TOL (which its average with I meets at UNITARY_TOL), so a
    drifting power raises ``NotUnitary`` before it can overflow."""
    u = _square(u, NotUnitary)
    _require_dim(2 * len(u))
    power = require_unitary(u)
    if j < 0:
        raise DomainError("power index j must be >= 0")
    for _ in range(j):
        power = require_unitary(power @ power, 2 * UNITARY_TOL)
    identity = np.arange(len(u))  # the range of I
    return _average([np.eye(len(u)), np.exp(-2j * np.pi * theta) * power], identity, identity, 1.0)


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


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings
_SLICE = 2**15  # list entries joined into one written piece


def _joined_rows(head: np.ndarray) -> list:
    """For each row r and tile t of head, of shape (n, m, w), an iterator
    over the (text, entries) joins of at most _SLICE of the row's entries,
    in json's spelling: one ``float.__repr__`` per distinct bit pattern (so
    -0.0 and 0.0 stay apart), and json's ``NaN``, ``Infinity`` and
    ``-Infinity``.  The word table lives as long as an iterator does."""
    n, m, w = head.shape
    bits, inverse = np.unique(
        np.ascontiguousarray(head, dtype=float).view(np.uint64), return_inverse=True
    )
    values = bits.view(float)
    words = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        words[i] = _NONFINITE[words[i]]
    words, inverse = np.array(words, dtype=object), inverse.reshape(head.shape)

    def slices(r, t):
        for c in range(0, w, _SLICE):
            yield ", ".join(words[inverse[r, t, c : c + _SLICE]].tolist()), min(_SLICE, w - c)

    return [[slices(r, t) for t in range(m)] for r in range(n)]


def _tiled_chunks(head: np.ndarray):
    """Yields the text ``json.dumps`` writes for the row-major float list of
    the (n m) x (m w) matrix whose block (p, q) is head[:, p ^ q], head of
    shape (n, m, w): its first block row, tile q at head[:, q].

    Each (row, tile) piece of head is joined once (``_joined_rows``), and
    the matrix's row p n + r is the join of head's pieces (r, p ^ q),
    q = 0 .. m - 1.  For m > 1 block row 0's pieces are joined first and
    kept for the other block rows, and the word table is dropped.  With one
    tile the rows run on into each other, so they are sliced as one row
    (a join per row would cost a call per entry of a column vector), and
    each slice is joined as it is written.  The joins are grouped into
    yielded pieces of at most _SLICE entries, each seam ", " yielded apart."""
    n, m, w = head.shape
    if m == 1:
        head = head.reshape(1, 1, n * w)
    table = _joined_rows(head)
    if m > 1:  # every block row reads block row 0's pieces
        table = [[list(piece) for piece in row] for row in table]
    yield "["
    group, entries = [], 0
    for p in range(m):
        for row in table:
            for q in range(m):
                for text, size in row[p ^ q]:
                    if entries + size > _SLICE:
                        yield ", ".join(group)
                        yield ", "
                        group, entries = [], 0
                    group.append(text)
                    entries += size
    if group:
        yield ", ".join(group)
    yield "]"


def _float_chunks(x: np.ndarray):
    """Yields the text ``json.dumps(x.tolist())`` writes for a float vector:
    ``_tiled_chunks`` of it as one row and one tile, so in pieces of
    _SLICE entries, the last holding the rest."""
    yield from _tiled_chunks(np.reshape(x, (1, 1, -1)))


def _indicator_chunks(length: int, ones: np.ndarray):
    """Yields what ``_float_chunks`` yields for the 0/1 vector of this length
    with 1.0 at the sorted positions ``ones`` and 0.0 elsewhere, in the same
    pieces, from the positions alone: runs of "0.0" and "1.0" entries."""
    yield "["
    for start in range(0, length, _SLICE):
        stop = min(start + _SLICE, length)
        piece, at = [], start
        for one in ones[np.searchsorted(ones, start) : np.searchsorted(ones, stop)].tolist():
            piece.append("0.0, " * (one - at) + "1.0, ")
            at = one + 1
        piece.append("0.0, " * (stop - at))
        if start:
            yield ", "
        yield "".join(piece)[:-2]
    yield "]"


def _matrix_chunks(m: np.ndarray, tiles: int = 1):
    """``matrix_to_json(m)`` in pieces, for m of ``tiles`` x ``tiles`` equal
    blocks whose block (p, q) is block (0, p ^ q), as ``_average`` writes
    U: each list is written from m's first block row (``_tiled_chunks``).
    Any matrix is one such block: ``tiles`` = 1."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    head = m[: rows // tiles].reshape(rows // tiles, tiles, cols // tiles)
    yield f'{{"cols": {cols}, "im": '
    yield from _tiled_chunks(head.imag)
    yield ', "re": '
    yield from _tiled_chunks(head.real)
    yield f', "rows": {rows}}}'


def _projector_chunks(p: np.ndarray, dim: int):
    """``_matrix_chunks`` of a stored projector; one held as its sorted range
    indices is written from them, with no dense array formed."""
    if p.ndim == 2:
        yield from _matrix_chunks(p)
        return
    yield f'{{"cols": {dim}, "im": '
    yield from _indicator_chunks(dim * dim, p[:0])
    yield ', "re": '
    yield from _indicator_chunks(dim * dim, p * (dim + 1))
    yield f', "rows": {dim}}}'


def matrix_to_json(m: np.ndarray) -> str:
    """JSON object of a matrix: shape and row-major real and imaginary parts,
    keys sorted as ``json.dumps(..., sort_keys=True)`` writes them."""
    return "".join(_matrix_chunks(m))


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


def _encoding_chunks(be: BlockEncoding):
    """Yields ``encoding_to_json(be)`` in pieces of at most _SLICE list
    entries, for a writer that never holds the whole text."""
    right, left = be._projectors
    yield f'{{"alpha": {json.dumps(be.alpha)}'
    yield ', "proj_left": '
    yield from _projector_chunks(left, be.dim)
    yield ', "proj_right": '
    yield from _projector_chunks(right, be.dim)
    yield ', "unitary": '
    yield from _matrix_chunks(be.unitary, be._tiles)
    yield "}"


def encoding_to_json(be: BlockEncoding) -> str:
    """JSON object of an encoding: alpha and its three matrices in the form
    of ``matrix_to_json``, keys sorted; the joined pieces of
    ``_encoding_chunks``, which the CLI writes to a file one by one."""
    return "".join(_encoding_chunks(be))


def encoding_from_json(text: str) -> BlockEncoding:
    payload = json.loads(text)
    matrices = [
        _matrix_from_payload(_json_field(payload, key, lambda v: v, "encoding"), f"encoding {key}")
        for key in _ENCODING_MATRICES
    ]
    return BlockEncoding(*matrices, _json_field(payload, "alpha", float, "encoding"))
