import functools

import numpy as np
import pytest

from qsvtsim import (
    BlockEncoding,
    CANONICAL,
    Basis,
    ChebyshevPoly,
    Convention,
    DomainError,
    NotUnit,
    Parity,
    PhaseSequence,
    QsvtProgram,
    SolverOptions,
    UnsupportedConversion,
    amplitude_amplification_matrix_element,
    convert_convention,
    eigen_oracle,
    eigenvalue_threshold_poly,
    embed_general,
    encoding_from_json,
    encoding_to_json,
    extract_block,
    hamiltonian_simulation,
    projector_phase,
    qsvt_unitary,
    real_part_encoding,
    residual,
    qubitize_hermitian,
    response,
    response_many,
    shift_positive,
    sign_poly,
    solve_phases,
    svd_oracle,
    transformed_block,
)
from qsvtsim.qsp_core import _reflection_offsets


def random_contraction(rng, dim, norm=0.95):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a * (norm / np.linalg.norm(a, 2))


def random_parity_poly(rng, degree, sup=0.9):
    coeffs = np.zeros(degree + 1)
    coeffs[degree % 2 :: 2] = rng.standard_normal(len(coeffs[degree % 2 :: 2]))
    poly = ChebyshevPoly(coeffs, Parity.ODD if degree % 2 else Parity.EVEN)
    return poly.scaled(sup / poly.sup_norm())


class TestQsvtUnitary:
    def test_identity_polynomial(self):
        a = np.diag([0.3, 0.7]).astype(complex)
        prog = QsvtProgram(embed_general(a, 1.0), PhaseSequence((0.0, 0.0), CANONICAL))
        v = qsvt_unitary(prog)
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-11
        assert np.max(np.abs(transformed_block(prog) - a)) < 1e-12

    def test_degree_two_chebyshev(self):
        enc = embed_general(np.diag([0.5]).astype(complex), 1.0)
        prog = QsvtProgram(enc, PhaseSequence((0.0, 0.0, 0.0), CANONICAL))
        assert transformed_block(prog)[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_wz_phases_accepted(self):
        enc = embed_general(np.diag([0.5]).astype(complex), 1.0)
        wz = convert_convention(PhaseSequence((0.0, 0.0, 0.0), CANONICAL), Convention.wz())
        prog = QsvtProgram(enc, wz)
        assert prog.phases.convention == CANONICAL

    def test_wx00_phases_rejected(self):
        enc = embed_general(np.diag([0.5]).astype(complex), 1.0)
        with pytest.raises(UnsupportedConversion):
            QsvtProgram(enc, PhaseSequence((0.0, 0.0), Convention.wx(Basis.ZERO_ZERO)))


class TestOracleEquivalence:
    def test_sign_program_block(self):
        poly = sign_poly(0.1, 0.4)
        seq = solve_phases(poly)
        prog = QsvtProgram(embed_general(np.diag([0.1, 0.9]).astype(complex), 1.0), seq)
        block = transformed_block(prog)
        assert abs(block[1, 1] - 1.0) <= 0.1  # 0.9 is outside the window
        assert abs(block[0, 1]) < 1e-9 and abs(block[1, 0]) < 1e-9

    def test_random_instances_match_svd_oracle(self, rng):
        worst = 0.0
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            degree = int(rng.integers(1, 13))
            a = random_contraction(rng, dim)
            poly = random_parity_poly(rng, degree)
            seq = solve_phases(poly, SolverOptions(residual_tol=1e-9))
            block = transformed_block(QsvtProgram(embed_general(a, 1.0), seq))
            worst = max(worst, float(np.max(np.abs(block - svd_oracle(a, poly)))))
        assert worst <= 1e-9 + 1e-9

    def test_rank_one_odd_transform(self):
        # block lands on |w><v| for odd parity (left/right bookkeeping)
        a = np.array([[0, 0.8], [0, 0]], dtype=complex)
        t3 = ChebyshevPoly([0, 0, 0, 1.0], Parity.ODD).scaled(1.0)
        seq = solve_phases(t3, SolverOptions(residual_tol=1e-6))
        block = transformed_block(QsvtProgram(embed_general(a, 1.0), seq))
        t3_at = 4 * 0.8**3 - 3 * 0.8
        assert block[0, 1] == pytest.approx(t3_at, abs=1e-6)
        assert np.max(np.abs(svd_oracle(a, t3) - block)) < 1e-6

    def test_high_degree_on_hamsim_output(self, family_solutions):
        # the 128-dimensional evolution encoding with degree-61 phases: the
        # rounding of the phased products must not reject a valid input
        rng = np.random.default_rng(100)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = 0.5 * (g + g.conj().T)
        h *= 0.9 / np.linalg.norm(h, 2)
        enc = encoding_from_json(encoding_to_json(hamiltonian_simulation(h, 1.0, 5.0, 1e-3)))
        _, seq, _ = family_solutions("poly_sign", d=61, k=12.0)
        block = transformed_block(QsvtProgram(enc, seq))
        w, sigma, vh = np.linalg.svd(extract_block(enc))
        expect = w @ np.diag(response_many(seq, sigma).real) @ vh
        assert np.max(np.abs(block - expect)) <= 1e-9


    def test_paper_scale_sign_transform(self):
        # the degree-153 certified sign phases on a 64x64 contraction
        a = random_contraction(np.random.default_rng(64), 64)
        poly = sign_poly(0.01, 0.1)
        assert poly.degree == 153
        seq = solve_phases(poly)
        block = transformed_block(QsvtProgram(embed_general(a, 1.0), seq))
        err = np.linalg.norm(block - svd_oracle(a, poly), 2)
        assert err <= residual(seq, poly) + 1e-10
        # the phases' own response per singular value, free of the residual
        w, sigma, vh = np.linalg.svd(a)
        expect = w @ np.diag(response_many(seq, sigma).real) @ vh
        assert np.max(np.abs(block - expect)) <= 1e-12


class TestDenseFrame:
    """An encoding whose projectors are not coordinate ones: the engine's
    dense change of frame, which no constructor reaches."""

    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(6)
        base = embed_general(random_contraction(rng, 6), 1.0)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        q, _ = np.linalg.qr(g)
        rotate = lambda m: q @ m @ q.conj().T
        enc = BlockEncoding(rotate(base.unitary), rotate(base.proj_right), rotate(base.proj_left))
        enc = encoding_from_json(encoding_to_json(enc))
        poly = sign_poly(0.1, 0.4)
        seq = solve_phases(poly)
        return enc, poly, seq, base

    def test_block_matches_svd_oracle(self, setup):
        enc, poly, seq, _ = setup
        block = transformed_block(QsvtProgram(enc, seq))
        err = np.max(np.abs(block - svd_oracle(extract_block(enc), poly)))
        assert err <= residual(seq, poly) + 1e-10
        # the phases' own response per singular value, free of the residual
        w, sigma, vh = np.linalg.svd(extract_block(enc))
        expect = w @ np.diag(response_many(seq, sigma).real) @ vh
        assert np.max(np.abs(block - expect)) <= 1e-12

    def test_real_part_encoding_block(self, setup):
        enc, _, seq, _ = setup
        prog = QsvtProgram(enc, seq)
        block = extract_block(real_part_encoding(prog))
        assert np.max(np.abs(block - transformed_block(prog))) <= 1e-12

    def test_unitary(self, setup):
        enc, _, seq, _ = setup
        v = qsvt_unitary(QsvtProgram(enc, seq))
        assert np.max(np.abs(v.conj().T @ v - np.eye(12))) <= 1e-11

    def test_unitary_is_the_literal_product(self, setup):
        # reference: Phi(chi_0) U' Phi(chi_1) ... Phi(chi_d), one dense
        # projector phase per slot, for the rotated and the coordinate frame
        enc_rotated, _, seq, base = setup
        chi = seq.as_array() + _reflection_offsets(seq.degree)
        for enc in (enc_rotated, base):
            v = projector_phase(enc.proj_right, chi[-1])
            for k in range(seq.degree - 1, -1, -1):
                odd = (seq.degree - k) % 2 == 1
                op = enc.unitary if odd else enc.unitary.conj().T
                v = projector_phase(enc.proj_left if odd else enc.proj_right, chi[k]) @ op @ v
            assert np.max(np.abs(qsvt_unitary(QsvtProgram(enc, seq)) - v)) <= 1e-13


def _edge_encodings():
    """Encodings by (rank_right, rank_left), at the rank extremes and at
    unequal ranks, whose blocks are not square: as coordinate projectors and
    rotated by a random unitary q.  q 0 q^dag is still the zero (coordinate)
    projector; q I q^dag is not, so the rotated full-rank sides take the
    dense frame, with an empty complement."""
    rng = np.random.default_rng(12)
    n = 6
    unitary = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    proj = {r: np.diag([1.0] * r + [0.0] * (n - r)).astype(complex) for r in range(n + 1)}
    rotate = lambda m: q @ m @ q.conj().T
    cases = {}
    for ranks in ((0, 0), (n, n), (0, n), (n, 0), (2, 3), (3, 2), (1, 4)):
        pr, pl = proj[ranks[0]], proj[ranks[1]]
        cases[f"coordinate-{ranks[0]}-{ranks[1]}"] = (BlockEncoding(unitary, pr, pl), ranks)
        enc = BlockEncoding(rotate(unitary), rotate(pr), rotate(pl))
        cases[f"rotated-{ranks[0]}-{ranks[1]}"] = (enc, ranks)
    return cases


EDGE_ENCODINGS = _edge_encodings()


class TestFrameEdgeCases:
    """Rank 0, full rank and unequal ranks on either side, through every
    reader of the encoding's stored frames."""

    @pytest.fixture(scope="class")
    def programs(self):
        rng = np.random.default_rng(13)
        polys = [random_parity_poly(rng, degree) for degree in (4, 5)]
        return [(poly, solve_phases(poly, SolverOptions(residual_tol=1e-9))) for poly in polys]

    @pytest.mark.parametrize("name", sorted(EDGE_ENCODINGS))
    def test_shapes_and_values(self, name, programs):
        enc, (rank_r, rank_l) = EDGE_ENCODINGS[name]
        n = enc.dim
        block = extract_block(enc)
        assert block.shape == (rank_l, rank_r)
        for poly, seq in programs:
            prog = QsvtProgram(enc, seq)
            out_rank = rank_l if seq.degree % 2 else rank_r
            tb = transformed_block(prog)
            assert tb.shape == (out_rank, rank_r)
            expect = svd_oracle(block, poly)
            assert np.max(np.abs(tb - expect), initial=0.0) <= residual(seq, poly) + 1e-10
            v = qsvt_unitary(prog)
            chi = seq.as_array() + _reflection_offsets(seq.degree)
            literal = projector_phase(enc.proj_right, chi[-1])
            for k in range(seq.degree - 1, -1, -1):
                odd = (seq.degree - k) % 2 == 1
                op = enc.unitary if odd else enc.unitary.conj().T
                literal = projector_phase(enc.proj_left if odd else enc.proj_right, chi[k]) @ op @ literal
            assert v.shape == (n, n) and np.max(np.abs(v - literal)) <= 1e-13
            real = real_part_encoding(prog)
            assert real.dim == 2 * n
            real_block = extract_block(real)
            assert real_block.shape == tb.shape
            assert np.max(np.abs(real_block - tb), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("name", ["coordinate-6-0", "rotated-6-6"])
    def test_stored_frames_are_read_only(self, name):
        enc, _ = EDGE_ENCODINGS[name]
        for rank, frame in (enc._frame_right, enc._frame_left):
            assert not frame.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frame[..., 0] = frame[..., 0]


class TestNonSquareOracle:
    """svd_oracle on tall and wide blocks; ``TestFrameEdgeCases`` also
    checks it against the engine on encodings whose ranks differ."""

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_zero_block(self, shape):
        odd = ChebyshevPoly([0.0, 0.5, 0.0, 0.25], Parity.ODD)
        even = ChebyshevPoly([0.3, 0.0, 0.5], Parity.EVEN)
        assert np.array_equal(svd_oracle(np.zeros(shape), odd), np.zeros(shape))
        # f(0) on the whole right space, the null space included
        assert np.allclose(svd_oracle(np.zeros(shape), even), even(0.0) * np.eye(shape[1]))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_matches_the_zero_padded_square(self, shape, rng):
        # padding A to 3 x 3 with a zero row or column keeps its singular
        # pairs; the padded column only adds f(0) on a null direction
        a = random_contraction(rng, 3)[: shape[0], : shape[1]]
        padded = np.zeros((3, 3), dtype=complex)
        padded[: shape[0], : shape[1]] = a
        for poly in (random_parity_poly(rng, 5), random_parity_poly(rng, 4)):
            odd = poly.parity is Parity.ODD
            expect = svd_oracle(padded, poly)[: shape[0] if odd else shape[1], : shape[1]]
            assert np.max(np.abs(svd_oracle(a, poly) - expect)) <= 1e-12


class TestEigenOracle:
    def test_identity(self, rng):
        h = np.diag([0.2, -0.5]).astype(complex)
        t1 = ChebyshevPoly([0, 1.0], Parity.ODD)
        assert np.max(np.abs(eigen_oracle(h, t1) - h)) < 1e-14

    def test_even_poly_insensitive_to_sign(self):
        h = np.diag([-0.5, 0.5]).astype(complex)
        even = ChebyshevPoly([0.2, 0, 0.3], Parity.EVEN)
        out = eigen_oracle(h, even)
        assert out[0, 0] == pytest.approx(out[1, 1])

    def test_parity_definite_oracles_coincide_for_hermitian(self, rng):
        # sign absorption: for Hermitian inputs the SVD and eigen transforms
        # agree for any parity-definite polynomial, negative eigenvalues
        # included
        h = np.diag([-0.5, 0.4]).astype(complex)
        odd = ChebyshevPoly([0, 0.3, 0, 0.4, 0, 0.1], Parity.ODD)
        assert np.max(np.abs(svd_oracle(h, odd) - eigen_oracle(h, odd))) < 1e-12

    def test_even_step_misclassifies_negative_eigenvalues(self):
        # the parity-forced symmetrization reads |lambda|, so a negative low
        # eigenvalue looks high; shift_positive restores the intended step
        pet = eigenvalue_threshold_poly(0.2, 0.2, 0.5)
        h = np.diag([-0.9, 0.8]).astype(complex)
        raw = eigen_oracle(h, pet)
        assert raw[0, 0] < 0  # wrong side: -0.9 is below the 0.5 cut
        shifted_cut = 0.5 * (0.5 + 1.0)
        pet_shifted = eigenvalue_threshold_poly(0.2, 0.1, shifted_cut)
        seq = solve_phases(pet_shifted, SolverOptions(residual_tol=1e-4))
        enc = shift_positive(qubitize_hermitian(h, 1.0))
        block = transformed_block(QsvtProgram(enc, seq))
        assert block[0, 0] > 0.8 and block[1, 1] < -0.8

    def test_qsvt_matches_eigen_oracle_with_negative_eigenvalues(self, rng):
        h = np.diag([-0.5, 0.4]).astype(complex)
        odd = ChebyshevPoly([0, 0.3, 0, 0.4, 0, 0.1], Parity.ODD)
        seq = solve_phases(odd, SolverOptions(residual_tol=1e-9))
        block = transformed_block(QsvtProgram(qubitize_hermitian(h, 1.0), seq))
        assert np.max(np.abs(block - eigen_oracle(h, odd))) < 1e-8

    def test_positive_definite_special_case(self, rng):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        h = (q * np.linspace(0.1, 0.9, 4)) @ q.T
        h = (h + h.conj().T) / 2
        poly = random_parity_poly(rng, 7)
        seq = solve_phases(poly, SolverOptions(residual_tol=1e-9))
        block = transformed_block(QsvtProgram(qubitize_hermitian(h, 1.0), seq))
        assert np.max(np.abs(block - eigen_oracle(h, poly))) < 1e-8

    def test_requires_hermitian(self):
        from qsvtsim import NotHermitian

        with pytest.raises(NotHermitian):
            eigen_oracle(np.array([[0, 1.0], [0, 0]]), ChebyshevPoly([0, 1.0], Parity.ODD))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_rejects_nan(self, entry):
        from qsvtsim import NotHermitian

        h = np.diag([0.5, -0.2]).astype(complex)
        h[entry] = np.nan
        with pytest.raises(NotHermitian, match="hermitian defect nan"):
            eigen_oracle(h, ChebyshevPoly([0, 1.0], Parity.ODD))

    def test_svd_oracle_requires_parity(self):
        with pytest.raises(DomainError):
            svd_oracle(np.eye(2), ChebyshevPoly([0.5, 0.5], Parity.NONE))


class TestGlobalPhaseFixedness:
    def test_block_has_no_phase_freedom(self, rng):
        # identical polynomials realized at different degrees and parities of
        # phase lists must produce byte-identical blocks, not phase-shifted
        a = np.diag([0.6]).astype(complex)
        t2 = ChebyshevPoly([0, 0, 1.0], Parity.EVEN)
        seq = solve_phases(t2, SolverOptions(residual_tol=1e-9))
        block = transformed_block(QsvtProgram(embed_general(a, 1.0), seq))
        expected = 2 * 0.36 - 1
        assert block[0, 0].real == pytest.approx(expected, abs=1e-8)
        assert abs(block[0, 0].imag) < 1e-8


class TestAmplitudeAmplification:
    @pytest.fixture
    def search_setup(self):
        h1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = functools.reduce(np.kron, [h1] * 4)
        b0 = np.zeros(16)
        b0[0] = 1.0
        a0 = np.zeros(16)
        a0[5] = 1.0
        return u, a0, b0

    def test_empty_product_returns_a(self, search_setup):
        u, a0, b0 = search_setup
        val = amplitude_amplification_matrix_element(u, a0, b0, [])
        assert val == pytest.approx(u[5, 0])

    def test_grover_growth_until_bound(self, search_setup):
        u, a0, b0 = search_setup
        a = 0.25
        bound = int(np.ceil(np.pi / (2 * np.arcsin(a))))  # 7 applications
        values = [
            abs(amplitude_amplification_matrix_element(u, a0, b0, [np.pi] * d))
            for d in range(0, bound + 3, 2)
        ]
        applications = list(range(1, bound + 4, 2))
        grew = [v2 > v1 for v1, v2 in zip(values, values[1:])]
        assert all(g for g, apps in zip(grew, applications[1:]) if apps <= bound)
        assert values[-1] < values[-2]  # overshoot past the bound

    def test_reduction_to_single_qubit_qsp(self, search_setup, rng):
        u, a0, b0 = search_setup
        phases = list(rng.uniform(-np.pi, np.pi, 6))
        lhs = amplitude_amplification_matrix_element(u, a0, b0, phases)
        a = float(np.real(a0 @ u @ b0))
        qsp = [np.pi / 4] + [p / 2 + np.pi / 2 for p in phases] + [np.pi / 4]
        seq = PhaseSequence(tuple(qsp), Convention.wx(Basis.ZERO_ZERO))
        rhs = (
            np.exp(0.5j * sum(phases))
            * (-1j) ** (len(phases) + 1)
            * response(seq, a)
        )
        assert abs(lhs - rhs) < 1e-10

    def test_validation(self, search_setup):
        u, a0, b0 = search_setup
        with pytest.raises(DomainError):
            amplitude_amplification_matrix_element(u, a0, b0, [0.1])
        with pytest.raises(NotUnit):
            amplitude_amplification_matrix_element(u, 2 * a0, b0, [])

    @pytest.mark.parametrize("which", ["A0", "B0"])
    def test_rejects_nan_vectors(self, search_setup, which):
        u, a0, b0 = search_setup
        vecs = {"A0": a0.copy(), "B0": b0.copy()}
        vecs[which][3] = np.nan
        with pytest.raises(NotUnit, match=which):
            amplitude_amplification_matrix_element(u, vecs["A0"], vecs["B0"], [0.1, 0.2])
