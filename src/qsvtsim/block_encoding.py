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
first read.

An encoding stores checked structure, and U is formed only when it is
read.  A completion (``_complete``) keeps its block's checked factors and
forms U from them at the first read (``_form``).  Every other encoding
keeps its checked first block row, the head, of shape (n, m, n): U's
block (p, q) is head[:, p xor q].  The constructor's U is the one-tile
case; ``_average`` runs its half-sums in the head and stops there, and
for a completion's products it reads their block's SVD from their
factors, with no decomposition.  ``extract_block`` and the codec read
the head, and ``extract_block`` and the QSVT engine's dense products
read a completion's factors instead, so a caller that reads only those
(``transformed_block``, the writer of an average, the algorithms' QSVT
circuits on a completion) never forms U.  A caller that reads only a
Hermitian block builds no encoding: ``_scaled_eigh`` gives the spectrum
that ``qubitize_hermitian`` encodes.  ``_eigenframe`` is the one
decomposition of a unitary: phase estimation reads U in it, and the QSVT
engine the product of any other encoding's two reflections.

Each encoding's unitarity defect max |U^dag U - I|, ``_defect``, is
certified once, when it is built: the constructor measures U's, a
completion bounds its U's from its checked factors (``_product_bound``),
and an average's is the mean of its branches' defects, each a bound
handed in or one measurement of the branch, plus its half-sums' rounding.

Matrices and encodings serialize to JSON through one writer that yields the
text one matrix row a piece (``_encoding_chunks``): ``encoding_to_json``
joins the pieces, and the CLI streams them to a file.  Each list is "[",
the matrix's rows with ", " between them, and "]" (``_matrix_chunks``).
The rows of U, and of any dense matrix as one tile, are written from the
head (``_tiled_rows``), one tile at a time: each distinct value of the
tile formatted and each of its rows joined once, then joined into every
block row.  An index projector's rows are written from its indices
(``_index_rows``).  The reader turns each matrix's lists into arrays as
soon as it is parsed (``_float_lists``).
"""

from __future__ import annotations

import functools
import json
import math
from numbers import Integral

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
    """m as a complex array; ``error`` unless it is a nonempty square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise error(f"expected a nonempty matrix, got shape {m.shape}")
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


def _factor_defect(gram: np.ndarray, name: str) -> float:
    """||G - I||_F of a factor's Gram matrix G, formed in place, once
    max |G - I| is checked at UNITARY_TOL (``NotUnitary`` naming the factor)."""
    _require_defect(_gram_defect(gram), what=f"factor {name} unitarity")
    return float(np.linalg.norm(gram))


def _product_bound(delta: float, e: np.ndarray, n: int) -> float:
    """Bound on max |B^dag B - I| for a 2n x 2n B with quadrants
    L diag(E_ij) V^dag, one length-n product each, L and V a completion's
    factors and ``e`` the n 2 x 2 blocks E_k as multiplied in: the
    reflections [[s_k, c_k], [c_k, -s_k]] for its U (``_complete``), or
    the QSP unitaries of one of its dense products (``_reflection_products``).

    The exact B is L~ E~ V~^dag, with L~ = I_2 (x) L, V~ = I_2 (x) V and E~
    the direct sum of the E_k, so B^dag B - I is (V~ V~^dag - I) +
    V~ (E~^dag E~ - I) V~^dag + V~ E~^dag (L~^dag L~ - I) E~ V~^dag, whose
    spectral norm, which bounds its largest entry, is at most
    d + (1 + d) (e + (1 + e) d) to first order: d = ``delta``, the larger
    Frobenius factor defect ||W^dag W - I|| or ||V V^dag - I|| (so no
    factor of n enters), e the largest Frobenius defect of the E_k.  Each
    quadrant's product moves it by about (n + 1) u in norm (u = 2^-53, the
    first-order normwise estimate), so the Gram moves by 4 (n + 1) u more."""
    gram = e.conj().transpose(0, 2, 1) @ e - np.eye(2)
    worst = float(np.max(np.linalg.norm(gram, axis=(1, 2)), initial=0.0))
    rounding = 2.0 * (n + 1) * np.finfo(float).eps
    return delta + (1.0 + delta) * (worst + (1.0 + worst) * delta) + rounding


# In the three validators an inf entry makes a NaN defect, which fails its check;
# numpy's warnings on the way are silenced so only the typed error surfaces.
@np.errstate(invalid="ignore", over="ignore")
def _unitary_defect(u: np.ndarray, tol: float = UNITARY_TOL) -> float:
    """max |U^dag U - I| of a square complex u, once checked at ``tol``."""
    defect = _gram_defect(u.conj().T @ u)
    _require_defect(defect, tol)
    return defect


def require_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    u = _square(u, NotUnitary)
    _unitary_defect(u, tol)
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
    """Matrix of u from range(P_R) to range(P_L), in the frames' range bases,
    for u the leading block of U that holds both ranges: each frame is cut
    to its first len(u) rows (an index frame's range indices all lie below
    len(u), and a dense frame's range rows past it are exact zeros)."""
    (rank_l, frame_l), (rank_r, frame_r) = left, right
    return _into(u, frame_l[: len(u)][..., :rank_l], frame_r[: len(u)][..., :rank_r])


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
    array as given, U as a one-tile head.

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

    One storage rule: checked structure is stored, and U is formed only
    when read.  ``unitary``, ``proj_right`` and ``proj_left`` are cached
    properties, and ``_defect``, U's certified unitarity defect, is stored
    with the structure.  The constructor and ``_average`` store U's
    checked first block row ``_head``, of shape (n, m, n) with U's block
    (p, q) = head[:, p xor q] (m = 1 and U itself for the constructor; m
    the branch count of an average).  U is tiled from the head at its
    first read; a one-tile head's U is a read-only view of it, with no
    copy.  ``_complete`` stores the block's factors (``_factors``),
    checked unitary: U is formed from them (``_form``) at the first read
    of either, once their bound on U's defect is checked at UNITARY_TOL,
    and its ``_head`` is that U as one tile.  So a caller that reads only
    the block, its SVD, the frames, ``_defect`` or ``dim`` never forms U,
    nor does the codec for an average.  A dense projector is read as
    stored, and one held as indices is built at its first read (one array
    for a projector shared by both sides).
    """

    def __init__(self, unitary, proj_right, proj_left, alpha: float = 1.0):
        u = _square(unitary, NotUnitary)
        _require_dim(len(u))
        defect = _unitary_defect(u)
        shared = proj_left is proj_right
        right = require_projector(proj_right)
        left = right if shared else require_projector(proj_left)
        if any(p.shape != u.shape for p in (right, left)):
            raise DomainError("projectors must match the unitary dimension")
        right = right.copy()
        left = right if shared else left.copy()
        self.__post_init__(len(u), right, left, alpha, head=u.copy()[:, None], defect=defect)

    # A dataclass's hook name on a plain class: the benchmark's tracer
    # (perfbench/tracing.py) wraps BlockEncoding.__post_init__ by name to
    # count and time every construction, then reads .unitary of its first
    # argument, so under another name every traced round fails with
    # AttributeError.  Every construction therefore calls it by this name.
    def __post_init__(self, dim: int, right: np.ndarray, left: np.ndarray, alpha: float, *,
                      svd=None, head=None, defect=None, factors=None) -> BlockEncoding:
        """Check alpha and the block norm and store U's certified ``defect``
        with the fields of a checked first block row (``head``) or of
        checked ``factors`` (W or None, s, their Frobenius defect), with
        projectors as arrays or range indices, one object when shared;
        ``svd`` is the block's, when the caller has it.  Both ranges lie in
        U's first n coordinates (every lift is |0..0><0..0| (x) P), so the
        block is read from head[:, 0]."""
        if not 0.0 < alpha < np.inf:  # a NaN alpha fails too
            raise DomainError(f"alpha {alpha} must be positive and finite")
        frame_right = _frame(right, dim)
        frame_left = frame_right if left is right else _frame(left, dim)
        if svd is None:
            svd = np.linalg.svd(_range_block(head[:, 0], frame_left, frame_right))
        norm = float(np.max(svd[1], initial=0.0))
        if norm > 1.0 + 1e-10:
            raise DomainError(f"encoded block has operator norm {norm:.6f} > 1")
        for value in (right, left, *svd, head, *(factors or ())):
            if isinstance(value, np.ndarray):  # not a completion's W read back from V^dag
                value.setflags(write=False)
        self.__dict__.update(alpha=alpha, dim=dim, _projectors=(right, left),
                             _frame_right=frame_right, _frame_left=frame_left,
                             _block_svd=tuple(svd), _factors=factors, _defect=defect)
        if head is not None:
            self.__dict__["_head"] = head
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"BlockEncoding is read-only: cannot write {name!r}")

    __delattr__ = __setattr__

    @functools.cached_property
    def unitary(self) -> np.ndarray:
        """U, read-only, formed at the first read: tiled from the head,
        block (p, q) = head[:, p xor q] (a one-tile head's view, no copy),
        or for a completion from its factors, once its defect bound is
        checked."""
        if self._factors is None:
            n, m = self._head.shape[:2]
            if m == 1:
                return self._head[:, 0]
            u = np.empty((self.dim, self.dim), dtype=complex)
            for p in range(m):  # block row p: its tile q is head[:, p ^ q]
                u[p * n : (p + 1) * n] = self._head[:, np.arange(m) ^ p].reshape(n, -1)
        else:
            _require_defect(self._defect)
            u = _form(*_completion_factors(self))
        u = np.asarray(u, dtype=complex)
        u.setflags(write=False)
        return u

    @functools.cached_property
    def _head(self) -> np.ndarray:
        return self.unitary[:, None]  # a completion's U, as one tile

    @functools.cached_property
    def proj_right(self) -> np.ndarray:
        return _dense_projector(self._projectors[0], self.dim)

    @functools.cached_property
    def proj_left(self) -> np.ndarray:
        right, left = self._projectors
        return self.proj_right if left is right else _dense_projector(left, self.dim)


def _completion_factors(be: BlockEncoding):
    """(W, s, V^dag) of a completion, A = W diag(s) V^dag with s signed, W
    read back from V^dag when V = W."""
    (w, s, _), vh = be._factors, be._block_svd[2]
    return vh.conj().T if w is None else w, s, vh


def extract_block(be: BlockEncoding) -> np.ndarray:
    """Matrix of the encoded block (A / alpha) in the projector-range bases,
    read from U's block (0, 0), which holds both ranges; a completion's is
    the product that ``_form`` writes into that block, with no U formed."""
    if be._factors is not None:
        w, s, vh = _completion_factors(be)
        return np.asarray((w * s) @ vh, dtype=complex)  # real factors, as U holds them
    return _range_block(be._head[:, 0], be._frame_left, be._frame_right)


def _lift(p: np.ndarray, copies: int) -> np.ndarray:
    """|0..0><0..0| (x) p on ``copies`` (a power of 2) times p's space, the
    ancillas most significant: p on the first block.  A projector held as
    its sorted range indices keeps them; a dense one is zero-filled."""
    if p.ndim == 1:
        return p
    out = np.zeros((copies * len(p), copies * len(p)), dtype=complex)
    out[: len(p), : len(p)] = p
    return out


def _form(w: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """U = [[A, R], [R, -A]], the reflection completion of A = W diag(s) V^dag
    with R = W diag(sqrt(1 - s^2)) V^dag: A and R are multiplied straight
    into U's quadrants, and -A and R copied into the other two.  Nothing is
    measured: ``_complete`` bounded U's defect from the checked factors."""
    n = len(s)
    u = np.empty((2 * n, 2 * n), dtype=np.result_type(w, s, vh))
    a, root = u[:n, :n], u[:n, n:]
    np.matmul(w * s, vh, out=a)
    np.matmul(w * np.sqrt(1.0 - s**2), vh, out=root)
    np.negative(a, out=u[n:, n:])
    u[n:, :n] = root
    return u


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
    each raising ``NotUnitary`` that names it; no U is formed.  The larger
    Frobenius norm of the two defects is kept with the factors, and bounds
    U's defect (``_defect``) and the QSVT engine's products' by one rule
    (``_product_bound``).  U's bound is checked at UNITARY_TOL when U is
    formed from W and s at its first read (``_form``), which measures
    nothing.  The encoding holds the block's
    SVD (W sign(s), |s|, V^dag) (a negative s, an eigenvalue of
    ``qubitize_hermitian``, folds its sign into W).  The sign is folded
    only when some s has its sign bit set, so the SVD's W is W itself when
    none has (a complex W (1 + 0j) can flip the sign of a zero part, and a
    zero's sign can reach U); when V = W, W is read back as (V^dag)^dag."""
    hermitian = vh is None
    if hermitian:
        vh = w.conj().T
    delta = _factor_defect(w.conj().T @ w, "W")
    if not hermitian:
        delta = max(delta, _factor_defect(vh.conj().T @ vh, "V"))
    if not np.all(np.abs(s) <= 1.0):  # a NaN fails too
        raise NotUnitary(f"factor s has |s| = {np.max(np.abs(s)):.3e} > 1")
    c = np.sqrt(1.0 - s**2)
    defect = _product_bound(delta, np.array([[s, c], [c, -s]]).transpose(2, 0, 1), len(s))
    folded = w * np.copysign(1.0, s) if np.signbit(s).any() else w
    pi = np.arange(len(s))
    return object.__new__(BlockEncoding).__post_init__(
        2 * len(s), pi, pi, float(alpha), svd=(folded, np.abs(s), vh), defect=defect,
        factors=(None if hermitian else w, s, delta))  # V = W is read back from V^dag


@np.errstate(invalid="ignore", over="ignore")
def _average(branches, proj_right, proj_left, alpha: float, bounds=None,
             factors=None) -> BlockEncoding:
    """Encoding of the mean of 2^k unitaries: (H^(x)k (x) I) diag(branches)
    (H^(x)k (x) I), Hadamards on k ancillas around their select, with both
    projectors lifted to |0..0><0..0| (x) P (``_lift``: sorted range indices
    stay as they are, and one lift serves both sides when both pass the same
    projector object).  Branch i sits at ancilla index i (first ancilla most
    significant); the cap on 2^k N is checked first.

    U's block (p, q) is C_(p xor q), C the Walsh-Hadamard transform of the
    branches taken by k levels of half-sums (x + y) / 2, (x - y) / 2.  The
    levels run in place in U's first block row, the head of shape (n, m, n)
    with head[:, r] = C_r, and stop there: the encoding stores the checked
    head and forms U from it only when U is read.  ``extract_block`` and the
    codec read the head, 1/m of U's entries.  ``branches`` is a sequence of
    the m branches, laid into a new head, or a head that holds them as its
    tiles, head[:, i] = B_i, which a caller has written them into (its
    dimension checked first) and which is overwritten.

    U^dag U - I = (H^(x)k (x) I) diag(E_i) (H^(x)k (x) I) with E_i = B_i^dag
    B_i - I, so its block (p, q) is sum_i (-1)^(popcount((p xor q) and i))
    E_i / 2^k, and its largest entry is at most the mean of the largest
    entries of the E_i, the branches' defects.  That mean is the one
    certificate of an average.  Each branch's defect is ``bounds[i]``, a
    bound its builder hands in (0 for I, an encoding's ``_defect``, a
    completion's product bound from ``_reflection_products``), or with no
    ``bounds`` one measurement of the branch's Gram.
    U itself is formed by k rounded half-sums an entry, each entry off by at
    most k u times the mean of its branch entries' magnitudes (u = 2^-53),
    so its Gram matrix differs from the exact one by at most
    2^(k/2 + 1) k u (1 + e), e the largest branch defect, to first order
    in u; twice that bound is the ``rounding``.  The stored ``_defect`` is
    the mean plus ``rounding``, checked at UNITARY_TOL.

    The block's SVD is taken of the head's block, unless ``factors`` =
    (L, G, V^dag) give each branch's block between the ranges as
    L diag(G[i]) V^dag: then the average's is L diag(g) V^dag, g the same
    half-sums of the rows of G, whose SVD (L e^(i arg g), |g|, V^dag) is
    read off with no decomposition."""
    if isinstance(branches, np.ndarray):  # laid out in the head, overwritten
        head, (n, m) = branches, branches.shape[:2]
        branches = [head[:, r] for r in range(m)]
    else:
        head, m, n = None, len(branches), len(branches[0])
    _require_dim(m * n)
    k = m.bit_length() - 1
    if bounds is None:
        bounds = [_gram_defect(b.conj().T @ b) for b in branches]
    rounding = 2.0 ** (k / 2 + 1) * k * np.finfo(float).eps * (1.0 + float(np.max(bounds)))
    defect = float(np.mean(bounds)) + rounding
    _require_defect(defect)
    if head is None:
        head = np.empty((n, m, n), dtype=complex)  # head[:, r] is U's block (0, r)
        for r, branch in enumerate(branches):
            head[:, r] = branch
    for level in range(k):  # pairs r, r + 2^level within each run of 2^(level + 1)
        pairs = head.reshape(n, m >> (level + 1), 2, 1 << level, n)
        x, y = pairs[:, :, 0], pairs[:, :, 1]
        total = x + y
        np.subtract(x, y, out=y)
        np.multiply(0.5, y, out=y)
        np.multiply(0.5, total, out=x)
        del total  # before the next level's, so one is held at a time
    svd = None
    if factors is not None:
        left, g, vh = factors
        for _ in range(k):
            g = 0.5 * (g[::2] + g[1::2])
        s = np.abs(g[0])
        phase = np.ones(len(s), dtype=complex)
        np.divide(g[0], s, out=phase, where=s > 0.0)
        svd = (left * phase, s, vh)
    right = _lift(proj_right, m)
    left = right if proj_left is proj_right else _lift(proj_left, m)
    return object.__new__(BlockEncoding).__post_init__(m * n, right, left, alpha, svd=svd,
                                                       head=head, defect=defect)


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
    |0><0| (x) old.  The branches' defects are known, 0 and be's own, so
    none is measured.
    """
    # the shifted block (old_block + I)/2 is itself sub-normalized
    return _average([np.eye(be.dim), be.unitary], *be._projectors, 1.0, bounds=(0.0, be._defect))


def phase_oracle_block(u: np.ndarray, j: int, theta: float) -> BlockEncoding:
    """Encoding of (I + exp(-2*pi*i*theta) U^(2^j)) / 2, the Hadamard average
    of I and the phased power, projectors |0><0| (x) I.  U^(2^j) comes from j
    squarings, bit for bit ``np.linalg.matrix_power``'s, each held to 2
    UNITARY_TOL (which its average with I meets at UNITARY_TOL), so a
    drifting power raises ``NotUnitary`` before it can overflow.  The
    average reads the defect the last check measured, with I's 0."""
    u = _square(u, NotUnitary)
    _require_dim(2 * len(u))
    power, defect = u, _unitary_defect(u)
    if j < 0:
        raise DomainError("power index j must be >= 0")
    for _ in range(j):
        power = power @ power
        defect = _unitary_defect(power, 2 * UNITARY_TOL)
    identity = np.arange(len(u))  # the range of I
    return _average([np.eye(len(u)), np.exp(-2j * np.pi * theta) * power], identity, identity, 1.0,
                    bounds=(0.0, defect))


def grover_signal(n: int, a_override: float | None = None) -> BlockEncoding:
    """2x2 reflection with scalar block a = 1/sqrt(N) at the top-left corner.

    Rows act on the marked/unmarked basis and columns on the start basis;
    the 1x1 encoded block is the start-to-marked amplitude.
    """
    if not (isinstance(n, Integral) and n >= 2):
        raise DomainError(f"search space size n must be an integer >= 2, got {n}")
    a = 1.0 / math.sqrt(n) if a_override is None else float(a_override)
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


def _joined_rows(tile: np.ndarray) -> list:
    """The text of each row of ``tile``, of shape (n, w): its entries in
    json's spelling with ", " between them.  The tile's word table holds one
    ``float.__repr__`` per distinct bit pattern (so -0.0 and 0.0 stay
    apart), json's ``NaN``, ``Infinity`` and ``-Infinity`` in place of the
    non-finite ones, and is dropped on return."""
    bits, inverse = np.unique(
        np.ascontiguousarray(tile, dtype=float).view(np.uint64), return_inverse=True
    )
    values = bits.view(float)
    words = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        words[i] = _NONFINITE[words[i]]
    words = np.array(words, dtype=object)
    return [", ".join(words[row].tolist()) for row in inverse.reshape(tile.shape)]


def _tiled_rows(head: np.ndarray):
    """Yields the row texts of the (n m) x (m w) matrix whose block (p, q) is
    head[:, p ^ q], head of shape (n, m, w): its first block row, tile q at
    head[:, q].  Each tile's rows are joined once (``_joined_rows``), one
    tile's word table at a time, and the matrix's row p n + r is the join
    of the tiles' rows r, tile p ^ q in column block q."""
    n, m = head.shape[:2]
    tiles = [_joined_rows(head[:, t]) for t in range(m)]
    for p in range(m):
        for r in range(n):
            yield ", ".join([tiles[p ^ q][r] for q in range(m)])


def _index_rows(dim: int, ones):
    """Yields the row texts of the dim x dim diagonal 0/1 matrix with 1.0 at
    the coordinates ``ones``, from them alone: one shared row of "0.0"
    entries, with "1.0" spliced in at column r for each r in ones."""
    zeros, ones = ", ".join(["0.0"] * dim), set(ones)
    for r in range(dim):
        yield zeros[: 5 * r] + "1.0" + zeros[5 * r + 3 :] if r in ones else zeros


def _matrix_chunks(stored: np.ndarray, dim: int = 0):
    """Yields ``matrix_to_json``'s text, one matrix row a piece, of the
    (n m) x (m w) matrix of the complex head ``stored`` of shape (n, m, w)
    (``_tiled_rows``; any matrix M is the one tile M[:, None]), or, stored
    1-d, of the dim x dim projector onto these sorted coordinates
    (``_index_rows``), with no dense array formed.  Each list is "[", the
    rows with ", " between them, and "]"; a matrix with no entries reads no
    rows and writes "[]"."""
    if stored.ndim == 1:
        rows = cols = dim
        parts = _index_rows(dim, ()), _index_rows(dim, stored.tolist())
    else:
        n, m, w = stored.shape
        rows, cols = n * m, m * w
        parts = _tiled_rows(stored.imag), _tiled_rows(stored.real)
    yield f'{{"cols": {cols}'
    for key, part in zip(("im", "re"), parts):
        yield f', "{key}": ['
        for r, row in enumerate(part if rows * cols else ()):
            if r:
                yield ", "
            yield row
        yield "]"
    yield f', "rows": {rows}}}'


def matrix_to_json(m: np.ndarray) -> str:
    """JSON object of a matrix: shape and row-major real and imaginary parts,
    keys sorted as ``json.dumps(..., sort_keys=True)`` writes them."""
    return "".join(_matrix_chunks(np.asarray(m, dtype=complex)[:, None]))


def _matrix_from_payload(payload, what: str) -> np.ndarray:
    rows, cols = (_json_field(payload, key, int, what) for key in ("rows", "cols"))
    re, im = (
        _json_field(payload, key, lambda v: np.asarray(v, dtype=float).reshape(rows, cols), what)
        for key in ("re", "im")
    )
    return np.stack([re, im], axis=-1).view(complex)[..., 0]  # exact, signed zeros included


def _float_lists(obj: dict) -> dict:
    """``json.loads``'s object hook: an object's "re" and "im" lists, read
    as float arrays as soon as the object is parsed, so that one matrix's
    Python floats are alive at a time.  A list that does not convert is
    kept as it is, for ``_matrix_from_payload`` to reject with its message;
    one that does converts there to the same array."""
    for key in ("re", "im"):
        if isinstance(obj.get(key), list):
            try:
                obj[key] = np.array(obj[key], dtype=float)
            except (TypeError, ValueError, OverflowError):  # raised again there
                pass
    return obj


def matrix_from_json(text: str) -> np.ndarray:
    return _matrix_from_payload(json.loads(text), "matrix")


_ENCODING_MATRICES = ("unitary", "proj_right", "proj_left")


def _encoding_chunks(be: BlockEncoding):
    """Yields ``encoding_to_json(be)`` in pieces of at most one matrix row,
    for a writer that never holds the whole text.  A projector held as its
    range indices is written from them, one stored dense from its array."""
    right, left = be._projectors
    yield f'{{"alpha": {json.dumps(be.alpha)}'
    for key, p in (("proj_left", left), ("proj_right", right)):
        yield f', "{key}": '
        yield from _matrix_chunks(p[:, None] if p.ndim == 2 else p, be.dim)
    yield ', "unitary": '
    yield from _matrix_chunks(be._head)
    yield "}"


def encoding_to_json(be: BlockEncoding) -> str:
    """JSON object of an encoding: alpha and its three matrices in the form
    of ``matrix_to_json``, keys sorted; the joined pieces of
    ``_encoding_chunks``, which the CLI writes to a file one by one."""
    return "".join(_encoding_chunks(be))


def encoding_from_json(text: str) -> BlockEncoding:
    """The encoding of ``encoding_to_json``'s text.  Each matrix's lists
    turn into float arrays as soon as it is parsed (``_float_lists``), so
    one matrix's Python floats are alive at a time, and its arrays are
    dropped once it is read."""
    payload = json.loads(text, object_hook=_float_lists)
    matrices = []
    for key in _ENCODING_MATRICES:
        fields = _json_field(payload, key, lambda v: v, "encoding")
        matrices.append(_matrix_from_payload(fields, f"encoding {key}"))
        fields.clear()
    return BlockEncoding(*matrices, _json_field(payload, "alpha", float, "encoding"))
