"""Property tests: the Hadamard average and the engine's dense product
against their literal circuits, the float writer against json.dumps, the
encoding codec and the stored structure (unitarity defect, block SVD)
against every constructor's output, a polynomial's exact sup against a
dense scan, and the unitarity of a sequence's Laurent pair, on seeded
inputs."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import chebyshev as cheb
from hypothesis import strategies as st
from scipy.linalg import block_diag

from qsvtsim import (
    BlockEncoding,
    ChebyshevPoly,
    Convention,
    Parity,
    PhaseSequence,
    QsvtProgram,
    embed_general,
    encoding_from_json,
    encoding_to_json,
    extract_block,
    grover_signal,
    hamiltonian_simulation,
    laurent_from_pq,
    matrix_inversion,
    phase_oracle_block,
    pq_from_sequence,
    qsvt_unitary,
    qubitize_hermitian,
    real_part_encoding,
    shift_positive,
    sign_poly,
    solve_phases,
)
from qsvtsim.block_encoding import UNITARY_TOL, _average, _matrix_chunks, matrix_to_json
from test_qsvt_engine import literal_product

# fixed examples (derandomize) and no example database, so runs replay
SETTINGS = settings(derandomize=True, deadline=None, max_examples=30, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def _matrix(rng, n, real):
    m = rng.standard_normal((n, n))
    return m if real else m + 1j * rng.standard_normal((n, n))


def _unitary(rng, n, real=False):
    return np.linalg.qr(_matrix(rng, n, real))[0]


def _hermitian(rng, n, real):
    m = _matrix(rng, n, real)
    h = (m + m.conj().T) / 2
    return h * (0.9 / np.linalg.norm(h, 2))


def _contraction(rng, n, real, sigma):
    """U diag(sigma) V with Haar-like U, V (real or complex)."""
    return (_unitary(rng, n, real) * sigma) @ _unitary(rng, n, real)


@functools.cache
def _sign_phases():
    return solve_phases(sign_poly(0.1, 0.4))


@SETTINGS
@given(seed=SEEDS, n=st.integers(1, 6), k=st.integers(0, 3), dense=st.booleans())
def test_a_read_average_unitary_is_its_tiled_first_block_row(seed, n, k, dense):
    # U is formed from the stored head at its first read, block (p, q) =
    # head[:, p ^ q], and is the literal Hadamard-conjugated select
    rng = np.random.default_rng(seed)
    m = 2**k
    branches = [_unitary(rng, n) for _ in range(m)]
    basis = _unitary(rng, n)[:, : rng.integers(0, n + 1)]
    proj = basis @ basis.conj().T if dense else np.flatnonzero(rng.integers(0, 2, n))
    enc = _average(branches, proj, proj, 1.0)
    assert "unitary" not in enc.__dict__ and enc._head.shape == (n, m, n)

    u = enc.unitary
    tiled = np.block([[enc._head[:, p ^ q] for q in range(m)] for p in range(m)])
    assert u.dtype == tiled.dtype and u.tobytes() == tiled.tobytes()
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    outer = functools.reduce(np.kron, [hadamard] * k + [np.eye(n)])
    assert np.max(np.abs(u - outer @ block_diag(*branches) @ outer)) <= 1e-14
    assert enc.unitary is u and not u.flags.writeable
    if m == 1:  # one tile: U is a view of the head, with no copy
        assert np.shares_memory(u, enc._head)


@SETTINGS
@given(seed=SEEDS, n=st.integers(1, 8), k=st.integers(1, 2))
def test_average_is_the_hadamard_conjugated_select(seed, n, k):
    rng = np.random.default_rng(seed)
    branches = [_unitary(rng, n) for _ in range(2**k)]
    right, left = rng.integers(0, 2, (2, n)).astype(bool)  # coordinate projector ranges
    proj_right, proj_left = (np.diag(mask).astype(complex) for mask in (right, left))
    enc = _average(branches, proj_right, proj_left, 1.0)

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    outer = functools.reduce(np.kron, [hadamard] * k + [np.eye(n)])
    assert np.max(np.abs(enc.unitary - outer @ block_diag(*branches) @ outer)) <= 1e-14

    mean = np.mean([b[np.ix_(left, right)] for b in branches], axis=0)
    assert np.max(np.abs(extract_block(enc) - mean), initial=0.0) <= 1e-14


CONSTRUCTORS = {
    "qubitize_hermitian": lambda rng, n, real: qubitize_hermitian(_hermitian(rng, n, real), 1.0),
    "embed_general": lambda rng, n, real: embed_general(
        _contraction(rng, n, real, rng.uniform(0.0, 1.0, n)), 1.0),
    "shift_positive": lambda rng, n, real: shift_positive(
        qubitize_hermitian(_hermitian(rng, n, real), 1.0)),
    "phase_oracle_block": lambda rng, n, real: phase_oracle_block(
        _unitary(rng, n, real), int(rng.integers(0, 3)), float(rng.random())),
    "grover_signal": lambda rng, n, real: grover_signal(n + 1),
    "real_part_encoding": lambda rng, n, real: real_part_encoding(QsvtProgram(
        embed_general(_contraction(rng, n, real, rng.uniform(0.0, 1.0, n)), 1.0),
        _sign_phases())),
    "hamiltonian_simulation": lambda rng, n, real: hamiltonian_simulation(
        _hermitian(rng, n, real), 1.0, 2.0, 0.01),
    "matrix_inversion": lambda rng, n, real: matrix_inversion(
        _contraction(rng, n, real, rng.uniform(0.5, 1.0, n)), 2.0, 0.05),
}


@SETTINGS
@given(name=st.sampled_from(sorted(CONSTRUCTORS)), seed=SEEDS, n=st.integers(1, 4),
       real=st.booleans())
def test_encoding_json_roundtrip_is_bit_exact(name, seed, n, real):
    enc = CONSTRUCTORS[name](np.random.default_rng(seed), n, real)
    text = encoding_to_json(enc)
    # the stdlib's bytes for the dense matrices, which share no code with the writer
    dense = {key: _stdlib_matrix(getattr(enc, key))
             for key in ("unitary", "proj_right", "proj_left")}
    assert text == json.dumps({"alpha": enc.alpha, **dense}, sort_keys=True)
    again = encoding_from_json(text)
    for key in ("unitary", "proj_right", "proj_left"):
        assert getattr(again, key).tobytes() == getattr(enc, key).tobytes()
    assert again.alpha == enc.alpha
    assert encoding_to_json(again) == text


@SETTINGS
@given(name=st.sampled_from(sorted(CONSTRUCTORS)), seed=SEEDS, n=st.integers(1, 4),
       real=st.booleans())
def test_stored_structure_matches_the_dense_checks(name, seed, n, real):
    enc = CONSTRUCTORS[name](np.random.default_rng(seed), n, real)
    u = enc.unitary
    assert u.dtype == complex
    # every builder's certificate bounds the dense measurement
    dense = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
    assert dense <= enc._defect <= UNITARY_TOL
    w, s, vh = enc._block_svd
    assert np.all(s >= 0.0)
    block = extract_block(enc)
    assert np.max(np.abs((w[:, : len(s)] * s) @ vh[: len(s)] - block), initial=0.0) <= 1e-13
    stored = [u, enc.proj_right, enc.proj_left, *enc._block_svd,
              enc._frame_right[1], enc._frame_left[1]]
    assert not any(array.flags.writeable for array in stored)


# singular values at and next to the ends of [0, 1], where the engine's
# eigenframe has clustered eigenvalues, mixed with random ones
SINGULAR_VALUES = (st.sampled_from([0.0, 1.0, 1e-15, 1.0 - 1e-15, 1e-8, 1.0 - 1e-8])
                   | st.floats(0.0, 1.0))


@SETTINGS
@given(seed=SEEDS, sigma=st.lists(SINGULAR_VALUES, min_size=1, max_size=6),
       degree=st.integers(0, 41), rotated=st.booleans())
def test_the_dense_product_is_the_literal_circuit(seed, sigma, degree, rotated):
    rng = np.random.default_rng(seed)
    enc = embed_general(_contraction(rng, len(sigma), False, np.array(sigma)), 1.0)
    if rotated:  # into dense projector frames: the eigenframe route, not the factors'
        q = _unitary(rng, enc.dim)
        enc = BlockEncoding(*(q @ m @ q.conj().T
                              for m in (enc.unitary, enc.proj_right, enc.proj_left)))
    assert (enc._factors is None) == rotated
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    v = qsvt_unitary(QsvtProgram(enc, PhaseSequence(tuple(phases))))
    assert np.max(np.abs(v - literal_product(enc, phases))) <= 1e-13


# signed zeros, the smallest subnormal, both sides of repr's switches to
# exponent form at 1e16 and 1e-4, and json's NaN and ±Infinity
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1.0000000000000002e16,
               1e-4, 9.999999999999999e-05, 0.00010000000000000002, -1e-4, -1e16,
               float("nan"), float("inf"), float("-inf"), 1.0, -1.0, 0.5]


def _stdlib_matrix(m):
    # a dense matrix in the writer's form, from .tolist(): no code shared with the writer
    return {"cols": m.shape[1], "im": m.imag.ravel().tolist(), "re": m.real.ravel().tolist(),
            "rows": m.shape[0]}


def _complex(re, im):
    # re + i im bit for bit: arithmetic would turn inf * 1j into nan
    return np.stack([re, im], axis=-1).view(complex)[..., 0]


def _row_pieces(part):
    # json.dumps's text of each row of a real matrix, with the ", " pieces between them
    return [piece for row in part.tolist() for piece in (", ", json.dumps(row)[1:-1])][1:]


@SETTINGS
@given(drawn=st.lists(st.floats(), max_size=8), seed=SEEDS, size=st.integers(0, 300))
def test_float_list_writes_the_bytes_of_json_dumps(drawn, seed, size):
    # every edge value, and heavy repetition: `size` more draws from the same pool,
    # written as one row, as one entry a row, and with no rows
    pool = np.array(EDGE_FLOATS + drawn)
    rng = np.random.default_rng(seed)
    x = rng.permutation(np.concatenate([pool, pool[rng.integers(0, len(pool), size)]]))
    row = _complex(x[None], x[None, ::-1])
    for m in (row, row.T, row[:0]):
        assert matrix_to_json(m) == json.dumps(_stdlib_matrix(m), sort_keys=True)


@pytest.mark.parametrize("shape", [(1, 2**15 - 1), (1, 2**15 + 1), (2**15 + 1, 1), (181, 181)])
def test_float_list_writes_the_bytes_of_json_dumps_one_row_a_piece(shape, first_difference):
    # a long row, a long column and a square: each list is "[", its rows with
    # ", " between them and "]", one matrix row a piece
    x = np.resize(np.array(EDGE_FLOATS), shape)
    m = _complex(x, x[::-1, ::-1])
    pieces = list(_matrix_chunks(m[:, None]))
    assert first_difference("".join(pieces), json.dumps(_stdlib_matrix(m), sort_keys=True)) is None
    rows = [f'{{"cols": {shape[1]}', ', "im": [', *_row_pieces(m.imag), "]",
            ', "re": [', *_row_pieces(m.real), "]", f', "rows": {shape[0]}}}']
    assert first_difference(pieces, rows) is None


@pytest.mark.parametrize("dim", [0, 1, 2, 7, 64, 181])
def test_an_index_projector_writes_the_pieces_of_its_dense_matrix(dim, first_difference):
    # 1.0 at random coordinates and at both ends, 0.0 elsewhere; and no coordinate
    rng = np.random.default_rng(dim)
    ones = np.unique(np.concatenate([rng.integers(0, dim + 1, 40), [0, dim - 1]]))
    for ones in (ones[(ones >= 0) & (ones < dim)], ones[:0]):
        dense = np.zeros((dim, dim), dtype=complex)
        dense[ones, ones] = 1.0
        pieces = list(_matrix_chunks(ones, dim))
        assert first_difference(pieces, list(_matrix_chunks(dense[:, None]))) is None
        stdlib = json.dumps(_stdlib_matrix(dense), sort_keys=True)
        assert first_difference("".join(pieces), stdlib) is None


@SETTINGS
@given(seed=SEEDS, n=st.integers(0, 4), k=st.integers(0, 2), w=st.integers(0, 4))
def test_a_head_is_written_as_its_tiled_dense_matrix(seed, n, k, w):
    # every entry from the edge values; a head with no rows or no columns writes "[]"
    m = 2**k
    edge = np.random.default_rng(seed).choice(EDGE_FLOATS, (2, n, m, w))
    head = _complex(*edge)
    tiled = np.block([[head[:, p ^ q] for q in range(m)] for p in range(m)]).reshape(n * m, m * w)
    assert "".join(_matrix_chunks(head)) == json.dumps(_stdlib_matrix(tiled), sort_keys=True)


@SETTINGS
@given(seed=SEEDS, degree=st.integers(1, 60), odd=st.booleans())
def test_the_exact_sup_is_never_below_a_dense_scan(seed, degree, odd):
    # ChebyshevPoly._sup, from the extremum sweep, against max |p| on 10^5
    # points x = cos(theta), up to the evaluator's rounding of 1e-14 sum |c_k|
    coeffs = np.random.default_rng(seed).standard_normal(degree + 1)
    coeffs[(0 if odd else 1)::2] = 0.0
    p = ChebyshevPoly(coeffs, Parity.ODD if odd else Parity.EVEN)
    scan = np.max(np.abs(p(np.cos(np.linspace(0.0, np.pi, 100_000)))))
    assert p._sup >= scan - 1e-14 * np.sum(np.abs(p.coeffs))


@SETTINGS
@given(seed=SEEDS, degree=st.integers(1, 60), parity=st.sampled_from(list(Parity)))
def test_the_exact_sup_is_the_largest_value_at_a_critical_point(seed, degree, parity):
    # the sweep's sup of an odd, even or mixed series against a dense scan
    # and against |p| at both ends and at the real parts of the roots of p'
    # (numpy's companion eigensolve), each within the evaluator's rounding
    coeffs = np.random.default_rng(seed).standard_normal(degree + 1)
    if parity is not Parity.NONE:
        coeffs[(0 if parity is Parity.ODD else 1)::2] = 0.0
    p = ChebyshevPoly(coeffs, parity)
    margin = 1e-14 * np.sum(np.abs(p.coeffs))
    scan = np.max(np.abs(p(np.cos(np.linspace(0.0, np.pi, 100_000)))))
    points = np.clip(cheb.chebroots(cheb.chebder(p.coeffs)).real, -1.0, 1.0)
    reference = np.max(np.abs(p(np.append(points, [-1.0, 1.0]))))
    assert p._sup >= scan - margin
    assert abs(p._sup - reference) <= margin


@SETTINGS
@given(seed=SEEDS, d=st.integers(1, 100),
       convention=st.sampled_from([Convention.wx(), Convention.reflection(), Convention.wz()]))
def test_the_laurent_pair_of_a_sequence_is_unitary(seed, d, convention):
    # F(w)F(1/w) + G(w)G(1/w) - 1 is a Laurent polynomial of degree 2d, so
    # its values at 4d + 8 roots of unity determine it
    phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, d + 1)
    pair = laurent_from_pq(*pq_from_sequence(PhaseSequence(tuple(phases), convention)))
    assert pair.unitarity_defect(4 * d + 8) <= 1e-12
