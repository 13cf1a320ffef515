import functools
import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from qsvtsim import (
    BlockEncoding,
    Convention,
    DomainError,
    NotHermitian,
    NotProjector,
    NotUnitary,
    QsvtProgram,
    ScaleTooSmall,
    embed_general,
    encoding_from_json,
    encoding_to_json,
    extract_block,
    grover_signal,
    hamiltonian_simulation,
    matrix_from_json,
    matrix_inversion,
    matrix_to_json,
    phase_oracle_block,
    projector_phase,
    qubitize_hermitian,
    real_part_encoding,
    shift_positive,
    sign_poly,
    signal_operator,
    solve_phases,
    transformed_block,
)
from qsvtsim.block_encoding import (
    UNITARY_TOL,
    _average,
    _complete,
    _coordinate_range,
    _encoding_chunks,
    _form,
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

    def test_many_squarings_fail_at_the_first_square_past_the_bound(self):
        # squaring doubles a defect: this U's passes 2e-12 near U^(2^14), where the
        # typed error names a finite defect, long before U^(2^100) could overflow
        u = _random_unitary(np.random.default_rng(0), 8)
        with pytest.raises(NotUnitary, match=r"^unitarity defect [2-4]\.\d{3}e-12 exceeds 2\.0e-12$"):
            phase_oracle_block(u, 100, 0.3)


class TestShiftedBlocks:
    """The block of a Hadamard average of I and a unitary whose block is a is
    (I + a) / 2, bit for bit, with U^(2^j) formed as ``matrix_power`` does."""

    @pytest.mark.parametrize("j", range(9))
    def test_the_phase_oracle_block(self, j):
        rng = np.random.default_rng(j)
        u = _random_unitary(rng, 5)
        theta = rng.uniform(0.0, 2.0)
        power = np.linalg.matrix_power(u, 2**j)
        shifted = 0.5 * (np.eye(5) + np.exp(-2j * np.pi * theta) * power)
        assert shifted.tobytes() == extract_block(phase_oracle_block(u, j, theta)).tobytes()

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_the_shifted_hermitian_block(self, n):
        enc = qubitize_hermitian(random_hermitian(np.random.default_rng(n), n), 1.0)
        shifted = 0.5 * (np.eye(n) + extract_block(enc))
        assert shifted.tobytes() == extract_block(shift_positive(enc)).tobytes()


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


def _random_unitary(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


SEEDED_ENCODINGS = {
    "embed_general": lambda rng: embed_general(
        random_hermitian(rng, 4) @ _random_unitary(rng, 4), 1.0),
    "qubitize_hermitian": lambda rng: qubitize_hermitian(random_hermitian(rng, 4), 1.0),
    "grover_signal": lambda rng: grover_signal(5),
    "shift_positive": lambda rng: shift_positive(qubitize_hermitian(random_hermitian(rng, 3), 1.0)),
    "phase_oracle_block": lambda rng: phase_oracle_block(_random_unitary(rng, 3), 2, 0.3),
    "real_part_encoding": lambda rng: real_part_encoding(QsvtProgram(
        qubitize_hermitian(random_hermitian(rng, 3), 1.0), solve_phases(sign_poly(0.1, 0.4)))),
    "matrix_inversion": lambda rng: matrix_inversion(
        0.5 * _random_unitary(rng, 3) + 0.25 * random_hermitian(rng, 3, 1.0), 4.0, 0.05),
    "hamiltonian_simulation": lambda rng: hamiltonian_simulation(
        random_hermitian(rng, 4), 1.0, 3.0, 1e-3),
}


@pytest.mark.parametrize("name", sorted(SEEDED_ENCODINGS))
def test_codec_bytes_match_the_reference_form_for_every_constructor(name, rng):
    be = SEEDED_ENCODINGS[name](rng)
    assert encoding_to_json(be) == _reference_encoding_json(be)
    assert matrix_to_json(be.unitary) == _reference_matrix_json(be.unitary)


def _stdlib_encoding_json(be):
    # json.dumps of each dense matrix's .tolist(): no code shared with the writer
    def matrix(m):
        return {"cols": m.shape[1], "im": m.imag.ravel().tolist(),
                "re": m.real.ravel().tolist(), "rows": m.shape[0]}

    return json.dumps({"alpha": be.alpha, "proj_left": matrix(be.proj_left),
                       "proj_right": matrix(be.proj_right), "unitary": matrix(be.unitary)},
                      sort_keys=True)


@pytest.mark.parametrize("n", [16, 64])
def test_an_evolution_is_written_from_its_first_block_row(n, first_difference):
    # hamiltonian_simulation averages four branches: U is 4 x 4 tiles, written
    # from its first block row, in pieces of at most one U row each
    be = hamiltonian_simulation(random_hermitian(np.random.default_rng(n), n), 1.0, 2.0, 0.01)
    assert be._head.shape[1] == 4 and be.dim == 8 * n
    pieces = list(_encoding_chunks(be))
    assert first_difference("".join(pieces), _stdlib_encoding_json(be)) is None
    assert max(piece.count(",") + 1 for piece in pieces) <= be.dim


@pytest.mark.parametrize("name", ["matrix_inversion", "phase_oracle_block",
                                  "real_part_encoding", "shift_positive"])
def test_a_two_branch_average_is_written_from_its_first_block_row(name, rng):
    be = SEEDED_ENCODINGS[name](rng)
    assert be._head.shape[1] == 2
    assert encoding_to_json(be) == _stdlib_encoding_json(be)


def test_an_average_keeps_the_signed_zeros_of_its_branches():
    # the half-sums keep -0.0 as the imaginary part of a negative entry, and
    # the writer formats its bit pattern apart from 0.0's
    def signed(re):
        m = np.empty((2, 2), dtype=complex)
        m.real, m.imag = re, -0.0
        return m

    z = -0.0
    branches = [signed([[-1.0, z], [z, -1.0]]), signed([[z, -1.0], [-1.0, z]]),
                signed([[-1.0, z], [z, -1.0]]), signed([[z, 1.0], [1.0, z]])]
    be = _average(branches, np.arange(2), np.arange(2), 1.0)
    assert be._head.shape[1] == 4
    text = encoding_to_json(be)
    assert text == _stdlib_encoding_json(be)
    assert text.split('"unitary"')[1].count("-0.0") == 16


def test_an_encoding_read_back_is_written_as_one_tile(rng):
    text = encoding_to_json(SEEDED_ENCODINGS["hamiltonian_simulation"](rng))
    again = encoding_from_json(text)
    assert again._head.shape[1] == 1
    assert encoding_to_json(again) == _stdlib_encoding_json(again) == text


@pytest.mark.parametrize("name", ["hamiltonian_simulation", "matrix_inversion",
                                  "phase_oracle_block", "real_part_encoding",
                                  "shift_positive"])
def test_no_builder_forms_the_unitary_unless_it_is_read(name, rng):
    # an average stores its first block row: the block, its SVD and the
    # writer read that, and U is formed only when it is read
    be = SEEDED_ENCODINGS[name](rng)
    assert "unitary" not in be.__dict__
    extract_block(be)
    assert "unitary" not in be.__dict__
    encoding_to_json(be)
    assert "unitary" not in be.__dict__


@pytest.mark.parametrize("name", ["hamiltonian_simulation", "matrix_inversion",
                                  "real_part_encoding"])
def test_a_shared_projector_is_lifted_and_framed_once(name, rng):
    # _complete passes one projector for both sides, and the averages keep it one
    be = SEEDED_ENCODINGS[name](rng)
    assert be.proj_left is be.proj_right
    assert be._frame_left is be._frame_right


def test_a_projector_passed_on_both_sides_is_stored_once():
    p = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    be = BlockEncoding(np.eye(4), p, p)
    assert be.proj_left is be.proj_right and be.proj_right is not p
    assert be._frame_left is be._frame_right
    apart = BlockEncoding(np.eye(4), p, p.copy())
    assert apart.proj_left is not apart.proj_right
    assert np.array_equal(apart._frame_left[1], be._frame_left[1])


def test_codec_bytes_of_an_encoding_read_with_a_dense_projector(rng):
    # a rank-1 projector off the coordinate axes, read back with a dense frame
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    dense = np.outer(v, v.conj())
    text = _reference_encoding_json(BlockEncoding(_random_unitary(rng, 4), dense, dense, 2.0))
    again = encoding_from_json(text)
    assert again._frame_right[1].dtype.kind == "c"  # the dense frame, not an index permutation
    assert encoding_to_json(again) == text


def _signed_zero_encoding_json():
    """A 4x4 encoding whose diagonal 0/1 projectors hold -0.0 in both parts."""
    z, o = -0.0, 1.0

    def matrix(re, im):
        return {"cols": 4, "im": im, "re": re, "rows": 4}

    right = matrix([o, z, 0.0, z, z, 0.0, z, z, 0.0, z, o, z, z, z, z, z],
                   [z, z, z, 0.0, z, z, z, z, z, 0.0, z, z, z, z, z, z])
    left = matrix([z, z, z, z, z, o, z, 0.0, z, z, o, z, 0.0, z, z, z],
                  [0.0, z, z, z, z, z, z, z, z, z, z, z, z, z, z, 0.0])
    # e0 and e1 swapped, e2 and e3 phased
    unitary = matrix([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6, 0.0, 0.0, 0.0, 0.0,
                      -0.8],
                     [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0,
                      0.6])
    return json.dumps({"alpha": 2.0, "proj_left": left, "proj_right": right, "unitary": unitary},
                      sort_keys=True)


def test_signed_zeros_of_a_read_projector_are_kept():
    # a projector read from outside is stored as given, so its -0.0 entries are
    # written back, framed by the index permutation, and lifted by shift_positive
    text = _signed_zero_encoding_json()
    enc = encoding_from_json(text)
    assert encoding_to_json(enc) == text
    for (rank, frame), perm in ((enc._frame_right, [0, 2, 1, 3]), (enc._frame_left, [1, 2, 0, 3])):
        assert rank == 2 and frame.dtype.kind == "i" and frame.tolist() == perm
    shifted = encoding_to_json(shift_positive(enc))
    assert shifted.count("-0.0") == 51
    assert hashlib.sha256(shifted.encode()).hexdigest() == (
        "39cd4eb7733ea7f11a42af00969f1738ff42b4fb17fd79f867ee4a8a66e6b04e")


def _coordinate_projector(dim, ranks):
    """The dense diagonal 0/1 projector on range(ranks), as zero-filled lifts give it."""
    p = np.zeros((dim, dim), dtype=complex)
    p[:ranks, :ranks] = np.eye(ranks)
    return p


@pytest.fixture
def outside_checks_fail(monkeypatch):
    """The checks of projectors read from outside raise when called."""
    import qsvtsim.block_encoding as block_encoding

    def fail(*args):
        raise AssertionError("an assembler's projector was checked or scanned")

    monkeypatch.setattr(block_encoding, "require_projector", fail)
    monkeypatch.setattr(block_encoding, "_coordinate_range", fail)


def test_assembled_projectors_are_held_as_indices(rng, outside_checks_fail):
    # no constructor forms, checks or writes a dense projector; a read builds it
    h = random_hermitian(rng, 4)
    seq = solve_phases(sign_poly(0.1, 0.4))
    general = embed_general(h @ _random_unitary(rng, 4), 1.0)
    transformed_block(QsvtProgram(general, seq))
    evolution = hamiltonian_simulation(h, 1.0, 3.0, 1e-3)
    encoding_to_json(evolution)
    built = [general, evolution,
             matrix_inversion(0.5 * _random_unitary(rng, 4) + 0.25 * h, 4.0, 0.05),
             real_part_encoding(QsvtProgram(general, seq)), shift_positive(general),
             phase_oracle_block(_random_unitary(rng, 4), 1, 0.3)]
    for enc in built:  # every range is the first 4 indices, on both sides
        assert "proj_right" not in enc.__dict__ and "proj_left" not in enc.__dict__
        assert enc._projectors[0] is enc._projectors[1]
        assert enc._projectors[0].tolist() == [0, 1, 2, 3]
    for enc in built:
        right = enc.proj_right
        assert enc.proj_left is right and enc.proj_right is right
        assert not right.flags.writeable
        assert right.tobytes() == _coordinate_projector(enc.dim, 4).tobytes()


def test_a_lifted_index_projector_on_one_side_is_built_apart(rng, outside_checks_fail):
    # the averages lift each side's indices; the two sides build two arrays
    enc = _average([_random_unitary(rng, 4) for _ in range(4)], np.arange(4), np.array([1, 3]),
                   1.0)
    assert enc._frame_left[1].tolist() == [1, 3] + [0, 2] + list(range(4, 16))
    left = enc.proj_left
    assert "proj_right" not in enc.__dict__
    assert np.flatnonzero(np.diagonal(left)).tolist() == [1, 3] and np.count_nonzero(left) == 2
    assert enc.proj_right.tobytes() == _coordinate_projector(16, 4).tobytes()
    assert enc.proj_right is not left


def _traced_peak_mib(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_assembly_memory_stays_within_budget():
    # tracemalloc counts numpy's allocations, so the peaks are deterministic.
    # Both outputs have dimension 512, where U is 4 MiB: dense projectors and
    # np.block copies took the peaks to 19.0 and 15.6 MiB.  The transform
    # reads only the block, so its completion forms no U: 4.0 MiB, against
    # 10.0 MiB when the completion formed it.  The evolution's products are
    # written straight into its head, and no Gram is formed: 2.1 MiB,
    # against 4.4 MiB with the branches held apart and their Grams measured
    rng = np.random.default_rng(256)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    a *= 0.95 / np.linalg.norm(a, 2)
    seq = solve_phases(sign_poly(0.1, 0.4))

    def transform():
        return transformed_block(QsvtProgram(embed_general(a, 1.0), seq))

    assert _traced_peak_mib(transform) <= 6
    h = random_hermitian(rng, 64)
    hamiltonian_simulation(h[:2, :2], 1.0, 2.0, 0.01)  # solve the phases first
    assert _traced_peak_mib(lambda: hamiltonian_simulation(h, 1.0, 2.0, 0.01)) <= 2.5


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


def _dense_defect(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(len(u))))


def _hadamard_average(branches):
    """The literal circuit (H^(x)k (x) I) diag(branches) (H^(x)k (x) I)."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    k = len(branches).bit_length() - 1
    outer = functools.reduce(np.kron, [hadamard] * k + [np.eye(len(branches[0]))])
    return outer @ block_diag(*branches) @ outer


def test_encodings_compare_and_hash_by_identity():
    first, second = grover_signal(4), grover_signal(4)
    assert first == first and first != second and not first == second
    assert len({first, second, first}) == 2
    assert first in {first} and second not in {first}
    assert "unitary" not in first.__dict__ and "unitary" not in second.__dict__


def test_every_construction_runs_the_store_routine_once(rng, monkeypatch):
    # The benchmark's tracer (perfbench/tracing.py) wraps
    # BlockEncoding.__post_init__ by that name to count and time
    # constructions, and reads .unitary of the wrapped call's first argument;
    # the last encoding a build constructs is the one it returns
    h = random_hermitian(rng, 4)
    general = embed_general(h @ _random_unitary(rng, 4), 1.0)
    seq = solve_phases(sign_poly(0.1, 0.4))
    text = encoding_to_json(general)
    p = np.diag([1.0, 0.0]).astype(complex)
    hamiltonian_simulation(h[:2, :2], 1.0, 2.0, 0.01)  # solve the phases first
    builds = {
        "BlockEncoding": (lambda: BlockEncoding(np.eye(2), p, p, 2.0), 1),
        "encoding_from_json": (lambda: encoding_from_json(text), 1),
        "embed_general": (lambda: embed_general(h, 1.0), 1),
        "qubitize_hermitian": (lambda: qubitize_hermitian(h, 1.0), 1),
        "grover_signal": (lambda: grover_signal(4), 1),
        "shift_positive": (lambda: shift_positive(general), 1),
        "phase_oracle_block": (lambda: phase_oracle_block(_random_unitary(rng, 4), 1, 0.3), 1),
        "real_part_encoding": (lambda: real_part_encoding(QsvtProgram(general, seq)), 1),
        "hamiltonian_simulation": (lambda: hamiltonian_simulation(h, 1.0, 2.0, 0.01), 2),
        "matrix_inversion": (
            lambda: matrix_inversion(0.5 * _random_unitary(rng, 4) + 0.25 * h, 4.0, 0.05), 2),
    }
    store, calls = BlockEncoding.__post_init__, []

    @functools.wraps(store)
    def counted(*args, **kwargs):
        result = store(*args, **kwargs)
        calls.append((args[0], args[0].unitary.shape[0]))
        return result

    monkeypatch.setattr(BlockEncoding, "__post_init__", counted)
    for name, (build, count) in builds.items():
        calls.clear()
        enc = build()
        assert len(calls) == count, name
        assert calls[-1] == (enc, enc.dim), name
        assert all(isinstance(first, BlockEncoding) and first.dim == dim
                   for first, dim in calls), name


def test_no_builder_measures_a_defect_twice(rng, monkeypatch):
    # every unitarity measurement is a Gram's, through _gram_defect: each
    # builder measures each input matrix it must check once, hands every
    # defect it knows on as a bound, and reading U and its defect
    # afterwards measures nothing
    import qsvtsim.block_encoding as block_encoding

    h = random_hermitian(rng, 4)
    u = _random_unitary(rng, 4)
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    seq = solve_phases(sign_poly(0.1, 0.4))
    general = embed_general(h @ u, 1.0)
    dense = BlockEncoding(general.unitary, general.proj_right, general.proj_left)
    hamiltonian_simulation(h, 1.0, 2.0, 0.01)  # solve the phases first
    builds = {  # the Grams each build measures, by shape
        "BlockEncoding": (lambda: BlockEncoding(u, p, p), [(4, 4)]),
        "embed_general": (lambda: embed_general(h @ u, 1.0), [(4, 4)] * 2),  # W and V
        "qubitize_hermitian": (lambda: qubitize_hermitian(h, 1.0), [(4, 4)]),  # V = W
        "grover_signal": (lambda: grover_signal(4), [(1, 1)] * 2),
        "shift_positive": (lambda: shift_positive(general), []),
        "shift_positive of a dense encoding": (lambda: shift_positive(dense), []),
        "phase_oracle_block": (lambda: phase_oracle_block(u, 2, 0.3), [(4, 4)] * 3),  # u, u^2, u^4
        "hamiltonian_simulation": (lambda: hamiltonian_simulation(h, 1.0, 2.0, 0.01), [(4, 4)]),
        "matrix_inversion": (lambda: matrix_inversion(0.5 * u + 0.25 * h, 4.0, 0.05), [(4, 4)] * 2),
        "real_part_encoding": (lambda: real_part_encoding(QsvtProgram(general, seq)), []),
        # the eigenframe route's products, one Gram each
        "real_part_encoding of a dense encoding": (
            lambda: real_part_encoding(QsvtProgram(dense, seq)), [(8, 8)] * 2),
    }
    gram_defect, grams = block_encoding._gram_defect, []
    monkeypatch.setattr(block_encoding, "_gram_defect",
                        lambda gram: grams.append(gram.shape) or gram_defect(gram))
    for name, (build, expected) in builds.items():
        grams.clear()
        enc = build()
        assert grams == expected, name
        enc.unitary
        assert enc._defect <= UNITARY_TOL and grams == expected, name


@pytest.fixture
def formation_fails(monkeypatch):
    """Forming a completion's U raises when called."""
    import qsvtsim.block_encoding as block_encoding

    def fail(*args):
        raise AssertionError("a completion's U was formed")

    monkeypatch.setattr(block_encoding, "_form", fail)


def test_a_block_read_forms_no_unitary(rng, formation_fails):
    seq = solve_phases(sign_poly(0.1, 0.4))
    general = embed_general(random_hermitian(rng, 4) @ _random_unitary(rng, 4), 1.0)
    transformed_block(QsvtProgram(general, seq))
    hermitian = qubitize_hermitian(random_hermitian(rng, 4), 1.0)
    assert len(hermitian._block_svd) == 3 and hermitian._frame_right[0] == 4
    assert hermitian.dim == 8 and hermitian.proj_right.shape == (8, 8)
    for enc in (general, hermitian):  # the defect bound is read with no U formed
        assert enc._defect <= UNITARY_TOL and "unitary" not in enc.__dict__


def test_the_first_read_forms_the_unitary_once(rng, monkeypatch):
    import qsvtsim.block_encoding as block_encoding

    calls = []

    def counted(*args):
        calls.append(args)
        return form(*args)

    form = block_encoding._form
    monkeypatch.setattr(block_encoding, "_form", counted)
    enc = qubitize_hermitian(random_hermitian(rng, 4), 1.0)
    u = enc.unitary
    assert enc.unitary is u and not u.flags.writeable and u.dtype == complex
    assert enc._defect <= UNITARY_TOL and len(calls) == 1
    defect = grover_signal(4)._defect  # a bound from the factors: no U is formed
    assert len(calls) == 1 and defect <= UNITARY_TOL


class TestCompletionCertificates:
    """A completion checks its factors when it is built and bounds U's defect
    from them, and U, formed from them when it is read, is the product of
    its quadrants bit for bit."""

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_the_formed_unitary_is_the_quadrant_products(self, rng, real, hermitian):
        n = 6
        g = rng.standard_normal((n, n)) + (0.0 if real else 1j * rng.standard_normal((n, n)))
        if hermitian:  # signed s, V = W
            s, w = np.linalg.eigh(g + g.conj().T)
            s, vh = s / (2.0 * np.max(np.abs(s))), w.conj().T
            enc = _complete(w, s, None, 1.0)
        else:
            w, s, vh = np.linalg.svd(g)
            s = s / (2.0 * s[0])
            enc = _complete(w, s, vh, 1.0)
        u = enc.unitary
        a, root = (w * s) @ vh, (w * np.sqrt(1.0 - s**2)) @ vh  # real for real factors
        quadrants = {(0, 0): a, (0, 1): root, (1, 0): root, (1, 1): -a}
        for (p, q), quadrant in quadrants.items():
            formed = u[p * n : (p + 1) * n, q * n : (q + 1) * n]
            assert formed.tobytes() == quadrant.astype(complex).tobytes()
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * n))) <= enc._defect <= UNITARY_TOL

    @pytest.mark.parametrize("name", ["embed_general", "qubitize_hermitian", "grover_signal"])
    def test_the_block_is_read_from_the_factors(self, rng, name):
        # with no U formed, and bit for bit the block U holds once it is formed
        enc = {"embed_general": lambda: embed_general(random_hermitian(rng, 5) @ _random_unitary(rng, 5), 4.0),
               "qubitize_hermitian": lambda: qubitize_hermitian(random_hermitian(rng, 5), 4.0),
               "grover_signal": lambda: grover_signal(4)}[name]()
        block = extract_block(enc)
        assert "unitary" not in enc.__dict__
        n = enc.dim // 2
        assert block.tobytes() == enc.unitary[:n, :n].tobytes()

    def test_a_zero_sign_flipped_by_the_fold_keeps_w(self):
        # W sign(s) = W (1 + 0j) turns W's -0 - 0j into +0 - 0j and 1 - 0j
        # into 1 + 0j, and those zeros' signs reach U; with no negative s
        # nothing is folded, and the SVD and U hold W itself
        w = np.array([[complex(0.0, -1.0), complex(-0.0, -0.0)],
                      [complex(-0.0, 0.0), complex(1.0, -0.0)]])
        vh = np.array([[complex(-0.0, 0.0), complex(-1.0, 0.0)],
                       [complex(-1.0, -0.0), complex(-0.0, -0.0)]])
        s = np.array([0.0, 1.0])
        folded = w * np.copysign(1.0, s)

        def quadrants(w):
            return ((w * s) @ vh).tobytes(), ((w * np.sqrt(1.0 - s**2)) @ vh).tobytes()

        assert quadrants(folded) != quadrants(w)
        enc = _complete(w, s, vh, 1.0)
        assert enc._block_svd[0].tobytes() == w.tobytes()
        assert (enc.unitary[:2, :2].tobytes(), enc.unitary[:2, 2:].tobytes()) == quadrants(w)

    @pytest.mark.parametrize("factor", ["W", "V", "W of a Hermitian block", "s"])
    def test_a_factor_off_unitary_raises_at_construction(self, rng, factor, formation_fails):
        w, s, vh = np.linalg.svd(random_hermitian(rng, 5) @ _random_unitary(rng, 5))
        args = {"W": (w * (1 + 1e-9), s, vh), "V": (w, s, vh * (1 + 1e-9)),
                "W of a Hermitian block": (w * (1 + 1e-9), s, None),
                "s": (w, np.concatenate([s[:-1], [1.0 + 1e-9]]), vh)}[factor]
        with pytest.raises(NotUnitary, match=f"^factor {factor[0]} "):
            _complete(*args, 1.0)

    def test_factors_within_the_bound_with_a_u_past_it_raise_at_the_first_read(self, rng):
        # each factor's Gram is off by about 8e-13, U^dag U - I by about
        # 1.6e-12; U's bound, twice the Frobenius factor defect
        # 8e-13 sqrt(5), is 3.6e-12 and fails when U is read
        w, s, vh = np.linalg.svd(random_hermitian(rng, 5) @ _random_unitary(rng, 5))
        enc = _complete(w * (1 + 4e-13), s, vh * (1 + 4e-13), 1.0)
        with pytest.raises(NotUnitary, match="^unitarity defect 3.58"):
            enc.unitary
        assert "unitary" not in enc.__dict__
        u = _form(w * (1 + 4e-13), s, vh * (1 + 4e-13))
        assert 1.6e-12 < _dense_defect(u) <= enc._defect

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("real", [False, True])
    def test_non_finite_inputs_raise_typed_errors(self, bad, real):
        h = np.diag([0.5, -0.25, 0.125]).astype(float if real else complex)
        entry = h.copy()
        entry[1, 2] = bad
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            embed_general(entry, 1.0)
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            matrix_inversion(entry, 4.0, 0.05)
        with pytest.raises(NotHermitian):
            qubitize_hermitian(entry, 1.0)
        with pytest.raises(NotUnitary if np.isnan(bad) else DomainError):
            embed_general(h, bad)
        with pytest.raises(DomainError, match="alpha"):
            qubitize_hermitian(h, bad)


class TestStructuredDefects:
    """The assemblers check U from its parts, and a corrupted part still
    fails UNITARY_TOL."""

    def test_a_scaled_factor_of_the_completion_raises(self, rng):
        w, s, vh = np.linalg.svd(random_hermitian(rng, 5) @ _random_unitary(rng, 5))
        _complete(w, s, vh, 1.0)
        with pytest.raises(NotUnitary, match="exceeds 1.0e-12"):
            _complete(w * (1 + 1e-11), s, vh, 1.0)

    def test_a_nan_factor_of_the_completion_raises(self, rng):
        w, s, vh = np.linalg.svd(random_hermitian(rng, 3))
        w[1, 2] = np.nan
        with pytest.raises(NotUnitary, match="defect nan"):
            _complete(w, s, vh, 1.0)

    def test_a_scaled_branch_of_the_average_raises(self, rng):
        branches = [_random_unitary(rng, 4) for _ in range(4)]
        eye = np.eye(4)
        _average(branches, eye, eye, 1.0)
        branches[2] = branches[2] * (1 + 3e-12)  # defect 6e-12, averaged to 1.5e-12
        assert _dense_defect(_hadamard_average(branches)) > UNITARY_TOL
        with pytest.raises(NotUnitary, match="exceeds 1.0e-12"):
            _average(branches, eye, eye, 1.0)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.5, 1.9, 2.1, 2.5])
    def test_an_average_with_i_keeps_the_dense_verdict(self, rng, scale):
        # the power's defect in units of UNITARY_TOL; the average halves it
        q = _random_unitary(rng, 4)
        p = (q * np.exp(2j * np.pi * rng.random(4))) @ q.conj().T
        p *= np.sqrt(1 + scale * UNITARY_TOL)
        eye = np.eye(4)
        dense = _dense_defect(_hadamard_average([eye, p])) <= UNITARY_TOL
        assert dense == (scale < 2)
        if dense:
            enc = _average([eye, p], eye, eye, 1.0)
            assert abs(enc._defect - _dense_defect(enc.unitary)) <= 1e-15
        else:
            with pytest.raises(NotUnitary):
                _average([eye, p], eye, eye, 1.0)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.5, 1.9])
    def test_phase_oracle_accepts_a_power_within_its_squaring_bound(self, rng, scale):
        # U^2 of a u with defect scale/2 UNITARY_TOL has about twice it, up to
        # the 2 UNITARY_TOL each squaring allows; its average with I passes
        # as the dense check of the same unitary does
        q = _random_unitary(rng, 4)
        u = (q * np.exp(2j * np.pi * rng.random(4))) @ q.conj().T
        u *= (1 + scale * UNITARY_TOL) ** 0.25
        assert _dense_defect(u @ u) == pytest.approx(scale * UNITARY_TOL, rel=1e-2, abs=0.0)
        enc = phase_oracle_block(u, 1, 0.3)
        assert _dense_defect(enc.unitary) <= UNITARY_TOL
        assert abs(enc._defect - _dense_defect(enc.unitary)) <= 1e-15


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
