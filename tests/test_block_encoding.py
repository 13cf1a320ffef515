import json
import time

import numpy as np
import pytest

from qsvtsim import (
    BlockEncoding,
    Convention,
    DomainError,
    NotHermitian,
    NotProjector,
    NotUnitary,
    ScaleTooSmall,
    embed_general,
    encoding_from_json,
    encoding_to_json,
    extract_block,
    grover_signal,
    hamiltonian_simulation,
    matrix_from_json,
    matrix_to_json,
    phase_oracle_block,
    projector_phase,
    qubitize_hermitian,
    shift_positive,
    signal_operator,
)
from qsvtsim.block_encoding import (
    _coordinate_range,
    _gram_schmidt,
    require_hermitian,
    require_projector,
    require_unitary,
)
from qsvtsim.qsp_core import Basis


def random_hermitian(rng, dim, norm=0.9):
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2
    return h * (norm / np.linalg.norm(h, 2))


class TestQubitize:
    def test_scalar_example(self):
        be = qubitize_hermitian(np.array([[0.6]]), 1.0)
        assert np.allclose(be.unitary, [[0.6, 0.8], [0.8, -0.6]])

    def test_zero_hamiltonian(self):
        be = qubitize_hermitian(np.zeros((2, 2)), 1.0)
        assert np.allclose(be.unitary[:2, 2:], np.eye(2))
        assert np.allclose(be.unitary[2:, :2], np.eye(2))
        assert np.allclose(be.unitary[:2, :2], 0.0)

    def test_identity_hamiltonian(self):
        be = qubitize_hermitian(np.eye(2), 1.0)
        assert np.allclose(be.unitary, np.diag([1, 1, -1, -1]))

    def test_roundtrip_and_action_on_eigenvectors(self, rng):
        h = random_hermitian(rng, 4)
        alpha = 1.2
        be = qubitize_hermitian(h, alpha)
        assert np.max(np.abs(extract_block(be) - h / alpha)) < 1e-12
        evals, evecs = np.linalg.eigh(h / alpha)
        for lam, v in zip(evals, evecs.T):
            top = np.concatenate([v, np.zeros(4)])
            bottom = np.concatenate([np.zeros(4), v])
            out = be.unitary @ top
            expected = lam * top + np.sqrt(1 - lam**2) * bottom
            assert np.max(np.abs(out - expected)) < 1e-10

    def test_bloch_sphere_decomposition(self, rng):
        # U restricted to each eigen-pair span is sqrt(1-l^2) X + l Z
        h = random_hermitian(rng, 5)
        be = qubitize_hermitian(h, 1.0)
        evals, evecs = np.linalg.eigh(h)
        for lam, v in zip(evals, evecs.T):
            basis = np.zeros((10, 2), dtype=complex)
            basis[:5, 0] = v
            basis[5:, 1] = v
            two = basis.conj().T @ be.unitary @ basis
            ref = np.array([[lam, np.sqrt(1 - lam**2)], [np.sqrt(1 - lam**2), -lam]])
            assert np.max(np.abs(two - ref)) < 1e-10

    def test_errors(self, rng):
        with pytest.raises(NotHermitian):
            qubitize_hermitian(np.array([[0, 1.0], [0, 0]]), 1.0)
        with pytest.raises(ScaleTooSmall):
            qubitize_hermitian(np.eye(2), 0.5)

    def test_zero_alpha_is_too_small(self):
        # checked without dividing by alpha, so no ZeroDivisionError
        with pytest.raises(ScaleTooSmall, match="alpha 0.0 below the spectral norm 0.5"):
            qubitize_hermitian(0.5 * np.eye(2), 0.0)


class TestEmbedGeneral:
    def test_unitary_input_has_zero_off_blocks(self, rng):
        # sqrt(1 - sigma^2) amplifies the SVD's ~1e-16 roundoff to ~1e-8
        q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        be = embed_general(q, 1.0)
        assert np.max(np.abs(be.unitary[:3, 3:])) < 1e-7

    def test_diagonal_roundtrip(self):
        a = np.diag([0.5, 0.8]).astype(complex)
        be = embed_general(a, 1.0)
        assert np.max(np.abs(extract_block(be) - a)) < 1e-12

    def test_zero_matrix(self):
        be = embed_general(np.zeros((2, 2)), 1.0)
        off = be.unitary[:2, 2:]
        assert np.allclose(off @ off.conj().T, np.eye(2))

    def test_scale_too_small(self):
        with pytest.raises(ScaleTooSmall):
            embed_general(np.diag([1.5, 0.2]), 1.0)
        with pytest.raises(ScaleTooSmall):
            embed_general(np.diag([1.5, 0.2]), 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            embed_general(np.zeros((2, 3)), 1.0)


class TestShiftPositive:
    @pytest.mark.parametrize(
        "diag,expected",
        [([-1.0, -1.0], [0.0, 0.0]), ([1.0, 1.0], [1.0, 1.0]), ([-0.4, 0.8], [0.3, 0.9])],
    )
    def test_affine_map(self, diag, expected):
        be = shift_positive(qubitize_hermitian(np.diag(diag), 1.0))
        block = extract_block(be)
        assert np.max(np.abs(block - np.diag(expected))) < 1e-12

    def test_doubles_dimension(self, rng):
        be = qubitize_hermitian(random_hermitian(rng, 3), 1.0)
        shifted = shift_positive(be)
        assert shifted.dim == 2 * be.dim
        assert shifted.alpha == 1.0


class TestPhaseOracle:
    def test_identity_oracle(self):
        be = phase_oracle_block(np.eye(2), 0, 0.0)
        assert np.max(np.abs(extract_block(be) - np.eye(2))) < 1e-12

    @pytest.mark.parametrize(
        "phi,j,theta,expected",
        [(0.25, 1, 0.0, 0.0), (0.5, 0, 0.5, 1.0), (0.3, 2, 0.1, None)],
    )
    def test_singular_value_formula(self, phi, j, theta, expected):
        u = np.array([[np.exp(2j * np.pi * phi)]])
        be = phase_oracle_block(u, j, theta)
        sigma = np.linalg.svd(extract_block(be), compute_uv=False)[0]
        if expected is None:
            expected = abs(np.cos(np.pi * (2**j * phi - theta)))
        assert abs(sigma - expected) < 1e-12

    def test_repeated_squaring_matches_power(self, rng):
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        be = phase_oracle_block(q, 3, 0.2)
        expected = 0.5 * (np.eye(4) + np.exp(-2j * np.pi * 0.2) * np.linalg.matrix_power(q, 8))
        assert np.max(np.abs(extract_block(be) - expected)) < 1e-12

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            phase_oracle_block(np.diag([1.0, 0.5]), 0, 0.0)


class TestGroverSignal:
    def test_n4_values(self):
        be = grover_signal(4)
        assert np.allclose(be.unitary, [[0.5, np.sqrt(0.75)], [np.sqrt(0.75), -0.5]])
        assert np.allclose(be.unitary @ be.unitary, np.eye(2))

    def test_rotation_angle(self):
        a = float(np.real(extract_block(grover_signal(4))[0, 0]))
        assert 2 * np.arcsin(a) == pytest.approx(np.pi / 3)

    def test_override_and_domain(self):
        be = grover_signal(8, a_override=0.6)
        assert extract_block(be)[0, 0] == pytest.approx(0.6)
        with pytest.raises(DomainError):
            grover_signal(1)


class TestProjectorPhase:
    def test_examples(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(projector_phase(p, np.pi / 2), np.diag([1j, -1j]))
        assert np.allclose(projector_phase(p, 0.0), np.eye(2))
        # exp(i*pi*(2P - I)) = -I: both eigenvalues pick up e^{+-i pi}
        assert np.allclose(projector_phase(p, np.pi), -np.eye(2))

    def test_general_projector(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        p = np.outer(v, v.conj())
        u = projector_phase(p, 0.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
        assert np.allclose(u @ v, np.exp(0.7j) * v)

    def test_not_projector(self):
        with pytest.raises(NotProjector):
            projector_phase(np.diag([1.0, 0.5]), 0.1)


def test_reflection_relation_between_signal_operators():
    # R(a) = -i e^{i pi/4 Z} W(a) e^{i pi/4 Z}
    ez = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    for a in np.linspace(-1, 1, 11):
        w = signal_operator(a, Convention.wx(Basis.ZERO_ZERO))
        r = signal_operator(a, Convention.reflection())
        assert np.max(np.abs(r - (-1j) * ez @ w @ ez)) < 1e-14


def test_extract_block_zero_projector(rng):
    be = qubitize_hermitian(random_hermitian(rng, 2), 1.0)
    zero = BlockEncoding(be.unitary, np.zeros_like(be.proj_right), np.zeros_like(be.proj_left))
    assert extract_block(zero).shape == (0, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda h: qubitize_hermitian(h, 1.0),
        lambda h: embed_general(h + 0.3j * h @ h, 2.0),
        lambda h: shift_positive(qubitize_hermitian(h, 1.0)),
        lambda h: grover_signal(8),
    ],
    ids=["qubitize_hermitian", "embed_general", "shift_positive", "grover_signal"],
)
def test_coordinate_range_basis_is_the_gram_schmidt_basis(build, rng):
    # the range columns of the stored index frame are the loop's basis bit for bit
    be = build(random_hermitian(rng, 3))
    for p, (rank, frame) in ((be.proj_right, be._frame_right), (be.proj_left, be._frame_left)):
        assert frame.dtype.kind == "i"
        fast, loop = np.eye(be.dim, dtype=complex)[:, frame[:rank]], _gram_schmidt(p)
        assert fast.dtype == loop.dtype and fast.shape == loop.shape
        assert fast.tobytes() == np.ascontiguousarray(loop).tobytes()


def test_block_encoding_validation(rng):
    u = np.eye(4, dtype=complex)
    good = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotUnitary):
        BlockEncoding(np.diag([1.0, 0.5, 1.0, 1.0]), good, good)
    with pytest.raises(NotProjector):
        BlockEncoding(u, np.diag([1.0, 0.5, 0.0, 0.0]), good)
    with pytest.raises(DomainError):
        BlockEncoding(u, good, good, alpha=-1.0)


def test_matrix_and_encoding_json_roundtrip(rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    again = matrix_from_json(matrix_to_json(m))
    assert np.max(np.abs(again - m)) == 0.0
    be = qubitize_hermitian(random_hermitian(rng, 2), 1.0)
    be2 = encoding_from_json(encoding_to_json(be))
    assert np.max(np.abs(be2.unitary - be.unitary)) == 0.0
    assert be2.alpha == be.alpha


def _reference_matrix_json(m):
    # the codec's earlier form: one float() per element
    m = np.asarray(m, dtype=complex)
    return json.dumps(
        {
            "rows": m.shape[0],
            "cols": m.shape[1],
            "re": [float(x) for x in m.real.ravel()],
            "im": [float(x) for x in m.imag.ravel()],
        },
        sort_keys=True,
    )


def _reference_encoding_json(be):
    # the codec's earlier form: each matrix serialized, parsed and serialized again
    return json.dumps(
        {
            "unitary": json.loads(_reference_matrix_json(be.unitary)),
            "proj_right": json.loads(_reference_matrix_json(be.proj_right)),
            "proj_left": json.loads(_reference_matrix_json(be.proj_left)),
            "alpha": be.alpha,
        },
        sort_keys=True,
    )


def test_codec_bytes_match_the_reference_form(rng):
    be = hamiltonian_simulation(random_hermitian(rng, 4), 1.0, 2.0, 0.01)
    assert encoding_to_json(be) == _reference_encoding_json(be)
    assert matrix_to_json(be.unitary) == _reference_matrix_json(be.unitary)
    edge = np.array(
        [[-0.0, 5e-324, 1.0], [-1.0, 1e308, np.nan]], dtype=float
    ) + 1j * np.array([[1e308, -0.0, np.nan], [5e-324, -1.0, 1.0]])
    text = matrix_to_json(edge)
    assert text == _reference_matrix_json(edge)
    again = matrix_from_json(text)
    assert again.tobytes() == edge.tobytes()


def test_coordinate_projectors_take_the_exact_path():
    p = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    assert list(_coordinate_range(p)) == [0, 2]
    require_projector(p)
    swap = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)
    be = BlockEncoding(swap, p, p)
    assert extract_block(be).tolist() == [[0, 0], [0, 1]]


@pytest.mark.parametrize(
    "entry, value, passes",
    [
        ((0, 0), 1 - 1e-13, True),
        ((0, 1), 1e-14, True),
        ((0, 0), 1 - 1e-11, False),
        ((0, 1), 1e-11, False),
    ],
    ids=["diag-1e-13", "offdiag-1e-14", "diag-1e-11", "offdiag-1e-11"],
)
def test_near_coordinate_projectors_keep_the_dense_verdict(entry, value, passes):
    p = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    p[entry] = value
    assert _coordinate_range(p) is None
    if passes:
        require_projector(p)
        BlockEncoding(np.eye(4, dtype=complex), p, p)
    else:
        with pytest.raises(NotProjector):
            require_projector(p)
        with pytest.raises(NotProjector):
            BlockEncoding(np.eye(4, dtype=complex), p, p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validators_reject_nan_and_inf(bad):
    u = np.eye(2, dtype=complex)
    u[0, 0] = bad
    with pytest.raises(NotUnitary, match="exceeds"):
        require_unitary(u)
    with pytest.raises(NotProjector, match="projector defects"):
        require_projector(np.diag([bad, 1.0]))
    with pytest.raises(NotHermitian, match="exceeds"):
        require_hermitian(u)


def test_nan_outside_the_encoded_block_is_not_unitary():
    # the norm reads only the gathered sub-block, so the unitarity check
    # must see a NaN in its complement
    p = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    u = np.eye(4, dtype=complex)
    u[3, 3] = np.nan
    with pytest.raises(NotUnitary):
        BlockEncoding(u, p, p)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0])
def test_alpha_must_be_positive_and_finite(alpha):
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DomainError, match="alpha"):
        BlockEncoding(np.eye(2, dtype=complex), p, p, alpha)


def test_hamiltonian_simulation_at_the_cap_is_fast(rng):
    h = random_hermitian(rng, 128)
    hamiltonian_simulation(h[:2, :2], 1.0, 2.0, 0.01)  # solve the phases first
    start = time.perf_counter()
    be = hamiltonian_simulation(h, 1.0, 2.0, 0.01)
    assert time.perf_counter() - start < 0.4
    assert be.dim == 1024


def _oversize_builds():
    """An encoding of dimension 1200 or 1500 from each entry point, with
    inputs whose decomposition, squaring or U^dag U check takes about 0.3 s."""
    rng = np.random.default_rng(600)
    g = rng.standard_normal((600, 600))
    h = (g + g.T) / 2
    u = np.linalg.qr(g)[0]
    eye = np.eye(1500)
    return {
        "embed_general": (lambda: embed_general(g, 1e3), 1200),
        "qubitize_hermitian": (lambda: qubitize_hermitian(h, 1e3), 1200),
        "phase_oracle_block": (lambda: phase_oracle_block(u, 6, 0.1), 1200),
        "BlockEncoding": (lambda: BlockEncoding(eye, eye, eye), 1500),
    }


OVERSIZE_BUILDS = _oversize_builds()


@pytest.mark.parametrize("name", sorted(OVERSIZE_BUILDS))
def test_dimension_cap_is_checked_before_any_work(name):
    build, dim = OVERSIZE_BUILDS[name]
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"^dimension {dim} exceeds the cap 1024$"):
        build()
    assert time.perf_counter() - start < 0.05
