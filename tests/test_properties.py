"""Property tests: the Hadamard average against its literal circuit, and the
encoding codec against every constructor's output, on seeded inputs."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from qsvtsim import (
    QsvtProgram,
    embed_general,
    encoding_from_json,
    encoding_to_json,
    extract_block,
    grover_signal,
    hamiltonian_simulation,
    matrix_inversion,
    phase_oracle_block,
    qubitize_hermitian,
    real_part_encoding,
    shift_positive,
    sign_poly,
    solve_phases,
)
from qsvtsim.block_encoding import _average

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
    again = encoding_from_json(text)
    for key in ("unitary", "proj_right", "proj_left"):
        assert getattr(again, key).tobytes() == getattr(enc, key).tobytes()
    assert again.alpha == enc.alpha
    assert encoding_to_json(again) == text
