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
    NotUnitary,
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
    grover_signal,
    hamiltonian_simulation,
    matrix_inversion,
    order_finding_demo,
    phase_estimation_record,
    phase_oracle_block,
    qsvt_search,
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
from qsvtsim.block_encoding import UNITARY_TOL, _eigenframe, _range_block
from qsvtsim.qsp_core import _reflection_offsets
from qsvtsim import algorithms, block_encoding, qsvt_engine
from qsvtsim.qsvt_engine import _full


def random_contraction(rng, dim, norm=0.95):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a * (norm / np.linalg.norm(a, 2))


def literal_product(enc, phases, dtype=complex):
    """Phi(chi_0) U Phi(chi_1) U^dag ... Phi(chi_d) with one dense projector
    phase exp(i chi (2P - I)) per slot, as ``projector_phase`` forms it,
    multiplied in ``dtype``: the engine's reference, in np.clongdouble a
    reference whose own rounding is 2^-64 an operation."""
    d = len(phases) - 1
    chi = (np.asarray(phases) + _reflection_offsets(d)).astype(np.finfo(dtype).dtype)
    u, right, left = (np.asarray(m, dtype=dtype) for m in (enc.unitary, enc.proj_right,
                                                         enc.proj_left))
    eye = np.eye(enc.dim, dtype=dtype)
    phase = lambda p, x: np.exp(1j * x) * p + np.exp(-1j * x) * (eye - p)
    v = phase(right, chi[-1])
    for k in range(d - 1, -1, -1):
        odd = (d - k) % 2 == 1
        op = u if odd else u.conj().T
        v = phase(left if odd else right, chi[k]) @ op @ v
    return v


def count_eigenframes(monkeypatch):
    """The dimension of each ``_eigenframe`` the engine and the algorithms
    take from here on, in call order."""
    calls = []

    def counting(u):
        calls.append(len(u))
        return _eigenframe(u)

    for module in (qsvt_engine, algorithms):
        monkeypatch.setattr(module, "_eigenframe", counting)
    return calls


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_oracle_of_a_non_finite_matrix_raises_a_typed_error(self, bad):
        # a NaN made the SVD raise LinAlgError, and an inf gave an all-NaN matrix
        a = np.diag([0.5, -0.25, 0.125]).astype(complex)
        a[1, 2] = bad
        poly = ChebyshevPoly([0.0, 0.6, 0.0, -0.3], Parity.ODD)
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            svd_oracle(a, poly)

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
        # for the rotated and the coordinate frame
        enc_rotated, _, seq, base = setup
        for enc in (enc_rotated, base):
            v = literal_product(enc, seq.as_array())
            assert np.max(np.abs(qsvt_unitary(QsvtProgram(enc, seq)) - v)) <= 1e-13


def _edge_encodings():
    """Encodings by (rank_right, rank_left), at the rank extremes and at
    unequal ranks, whose blocks are not square: as coordinate projectors and
    rotated by a random unitary q.  q 0 q^dag is still the zero (coordinate)
    projector; q I q^dag is not, so the rotated full-rank sides take the
    dense frame, with an empty complement.  Three reflection completions,
    whose dense products ``_full`` reads from their factors (one with signed
    singular values and V = W, one with a 1 x 1 block), and an average,
    read in the eigenframe as the rest are, cover each route."""
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
    h = random_contraction(rng, 3)
    h = 0.5 * (h + h.conj().T)
    cases["completion-embed"] = (embed_general(random_contraction(rng, 3), 1.0), (3, 3))
    cases["completion-qubitize"] = (qubitize_hermitian(h, 1.0), (3, 3))
    cases["completion-grover"] = (grover_signal(4), (1, 1))
    cases["average-shift"] = (shift_positive(qubitize_hermitian(h, 1.0)), (3, 3))
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
            literal = literal_product(enc, seq.as_array())
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


class TestReflectionPairs:
    """The dense product reads every U^dag Phi_L U pair at once: a
    completion's from its factors, with no decomposition, and any other
    encoding's in one eigenframe of the two reflections' product.  An odd
    degree ends with U' and Phi_L(chi_0); degrees 0, 1, 2, 3 and 41 read
    even parts of degree 0, 0, 2, 2 and 40, with and without the odd end.
    The block read is checked against the literal product on the same
    programs."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 41])
    @pytest.mark.parametrize("name", sorted(EDGE_ENCODINGS))
    def test_matches_the_literal_product(self, name, degree, monkeypatch):
        enc, _ = EDGE_ENCODINGS[name]
        rng = np.random.default_rng(degree)
        phases = rng.uniform(-np.pi, np.pi, degree + 1)
        prog = QsvtProgram(enc, PhaseSequence(tuple(phases), CANONICAL))
        calls = count_eigenframes(monkeypatch)
        v = qsvt_unitary(prog)
        assert calls == ([] if name.startswith("completion") else [enc.dim])
        literal = literal_product(enc, phases)
        assert np.max(np.abs(v - literal)) <= 1e-13
        # the real-part block between the projector ranges, out of the literal pair
        out_frame = enc._frame_left if degree % 2 else enc._frame_right
        mean = 0.5 * (literal + literal_product(enc, -phases))
        expect = _range_block(mean, out_frame, enc._frame_right)
        block = transformed_block(prog)
        assert block.shape == expect.shape
        assert np.max(np.abs(block - expect), initial=0.0) <= 1e-13

    def test_one_real_part_rule_on_both_routes(self):
        # hamsim's weighted average of an even and an odd list reads out at
        # P_R, where the even first list leaves it, and weights each pair
        # alike whether the products come from a completion's factors or
        # from a dense copy's eigenframe: the same block, exp(-iHt) / 2
        g = random_contraction(np.random.default_rng(41), 6)
        h = 0.5 * (g + g.conj().T)
        completion = qubitize_hermitian(h, 1.0)
        dense = BlockEncoding(completion.unitary, completion.proj_right, completion.proj_left)
        phases = [seq.as_array() for seq in algorithms._hamsim_phases(2.0, 1e-6)]
        blocks = [2.0 * extract_block(qsvt_engine._average_products(enc, phases, 2.0, (1, -1j)))
                  for enc in (completion, dense)]
        assert np.max(np.abs(blocks[0] - blocks[1])) <= 1e-12
        lam, v = np.linalg.eigh(h)
        assert np.linalg.norm(blocks[1] - (v * np.exp(-2j * lam)) @ v.conj().T, 2) <= 1e-6

    def test_n256_matches_svd_oracle(self):
        a = random_contraction(np.random.default_rng(256), 256)
        poly = sign_poly(0.05, 0.2)
        seq = solve_phases(poly)
        block = transformed_block(QsvtProgram(embed_general(a, 1.0), seq))
        assert np.linalg.norm(block - svd_oracle(a, poly), 2) <= residual(seq, poly) + 1e-10


def _rotated(enc, q):
    """The encoding q U q^dag with projectors q P q^dag: dense frames."""
    rotate = lambda m: q @ m @ q.conj().T
    return BlockEncoding(rotate(enc.unitary), rotate(enc.proj_right), rotate(enc.proj_left))


def _unitary_block_encoding(rng, n):
    """A full-rank unitary block: every singular value is 1."""
    w = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    pi = np.diag([1.0] * n + [0.0] * n).astype(complex)
    return BlockEncoding(np.kron(np.eye(2), w), pi, pi)


class TestBlockCoordinates:
    """The block and state reads take one SVD of the encoded block A and read
    the QSP response at its singular values, which relies on the alternating
    product acting on each singular pair as the 2x2 QSP product (Jordan's
    lemma): two unitary completions of one block give the same transform, and
    a singular value of 1, where the pair's invariant space has dimension 1,
    is checked up to degree 511 against the dense product of ``_full``, which
    reads the lemma from a completion's factors and in its own eigenframe, of
    the two reflections' product, for any other encoding."""

    @pytest.fixture(scope="class")
    def completions(self):
        rng = np.random.default_rng(19)
        n = 5
        enc = embed_general(random_contraction(rng, n), 1.0)

        def haar(dim):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            return np.linalg.qr(g)[0]

        # I on range(P_L) and range(P_R), a random unitary on each complement
        left, right = np.eye(2 * n, dtype=complex), np.eye(2 * n, dtype=complex)
        left[n:, n:], right[n:, n:] = haar(n), haar(n)
        other = BlockEncoding(left @ enc.unitary @ right, enc.proj_right, enc.proj_left)
        assert np.max(np.abs(extract_block(other) - extract_block(enc))) <= 1e-15
        assert np.max(np.abs(other.unitary - enc.unitary)) > 0.1
        q = haar(2 * n)
        return {"coordinate": (enc, other), "rotated": (_rotated(enc, q), _rotated(other, q))}

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 41])
    @pytest.mark.parametrize("frame", ["coordinate", "rotated"])
    def test_the_transform_reads_only_the_block(self, completions, frame, degree):
        rng = np.random.default_rng(degree)
        seq = PhaseSequence(tuple(rng.uniform(-np.pi, np.pi, degree + 1)), CANONICAL)
        first, second = (QsvtProgram(enc, seq) for enc in completions[frame])
        assert np.max(np.abs(transformed_block(first) - transformed_block(second))) <= 1e-13
        # the literal circuit on the other completion reads the same block
        enc, phases = completions[frame][1], seq.as_array()
        out_frame = enc._frame_left if degree % 2 else enc._frame_right
        mean = 0.5 * (literal_product(enc, phases) + literal_product(enc, -phases))
        expect = _range_block(mean, out_frame, enc._frame_right)
        assert np.max(np.abs(transformed_block(first) - expect)) <= 1e-13

    @staticmethod
    def _sigma_one_encodings():
        rng = np.random.default_rng(511)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (g + g.conj().T)
        u = np.linalg.qr(g)[0]
        theta = float(np.angle(np.linalg.eigvals(u)[0]) / (2 * np.pi)) % 1.0
        return {
            "phase_oracle": phase_oracle_block(u, 0, theta),  # one eigenvalue hits 1
            "qubitize_at_norm": qubitize_hermitian(h, float(np.linalg.norm(h, 2))),
            "grover_a1": grover_signal(2, 1.0),
            "unitary_block": _unitary_block_encoding(rng, 6),
        }

    @pytest.mark.parametrize("name", ["phase_oracle", "qubitize_at_norm", "grover_a1", "unitary_block"])
    def test_singular_value_one_up_to_degree_511(self, name):
        # a completion's products also match those of its U read in the
        # eigenframe; the literal product itself drifts by 2e-13 at degree 510
        enc = self._sigma_one_encodings()[name]
        assert np.linalg.norm(extract_block(enc), 2) == pytest.approx(1.0, abs=1e-14)
        dense = BlockEncoding(enc.unitary, enc.proj_right, enc.proj_left)
        assert (enc._factors is not None) == (name in ("qubitize_at_norm", "grover_a1"))
        rng = np.random.default_rng(7)
        for degree in (40, 41, 200, 201, 510, 511):
            phases = rng.uniform(-np.pi, np.pi, degree + 1)
            prog = QsvtProgram(enc, PhaseSequence(tuple(phases), CANONICAL))
            out_frame = enc._frame_left if degree % 2 else enc._frame_right
            pair = _full(prog.encoding, [phases, -phases])
            expect = _range_block(0.5 * (pair[0] + pair[1]), out_frame, enc._frame_right)
            assert np.max(np.abs(transformed_block(prog) - expect)) <= 1e-13
            for v, w in zip(pair, _full(dense, [phases, -phases])):
                assert np.max(np.abs(v - w)) <= 1e-13
            if degree < 200:
                assert np.max(np.abs(pair[0] - literal_product(enc, phases))) <= 1e-13

    def test_the_literal_products_drift_is_the_unitarys_own(self):
        # the literal product's defect grows with degree, to 1.9e-13 at 200
        # and 4.5e-13 at 510 here, as much in long double as in float64, and
        # the two stay within 3e-15: it is the stored U's own defect, 1.1e-15,
        # compounding over the product, not the rounding of float64, so above
        # degree 200 the sigma = 1 checks compare route with route instead
        enc = self._sigma_one_encodings()["qubitize_at_norm"]
        rng = np.random.default_rng(7)
        for degree in (200, 510):
            phases = rng.uniform(-np.pi, np.pi, degree + 1)
            wide = literal_product(enc, phases, np.clongdouble)
            drift = np.max(np.abs(wide.conj().T @ wide - np.eye(enc.dim)))
            assert drift > 1.5e-13 * degree / 200
            assert np.max(np.abs(literal_product(enc, phases) - wide)) <= 3e-15

    def test_a_block_norm_just_past_one(self):
        # U = V (I + 3e-11 x x^T) with P = I passes the unitarity check (its
        # defect is 9.4e-13) and the block-norm check (its norm is 1 + 3e-11).
        # Its singular values are read clipped to 1, which is the transform of
        # the unitary V; the literal product of U itself drifts from that, by
        # 2e-12 at degree 41 on this draw of V and up to 5e-11 on others
        rng = np.random.default_rng(0)
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        x = np.full((64, 1), 1.0 / 8.0)
        v = np.linalg.qr(g)[0]
        enc = BlockEncoding(v @ (np.eye(64) + 3e-11 * (x @ x.T)), np.eye(64), np.eye(64))
        assert np.linalg.norm(extract_block(enc), 2) > 1.0 + 2e-11
        phases = rng.uniform(-np.pi, np.pi, 42)
        block = transformed_block(QsvtProgram(enc, PhaseSequence(tuple(phases), CANONICAL)))
        unitary = BlockEncoding(v, np.eye(64), np.eye(64))
        for reference, tol in ((enc, 1e-11), (unitary, 1e-13)):
            expect = 0.5 * (literal_product(reference, phases) + literal_product(reference, -phases))
            assert np.max(np.abs(block - expect)) <= tol

    def test_solved_phases_at_singular_value_one(self, family_solutions):
        # structured phases at degree 499 on a block whose every singular
        # value is 1: the transform reads the QSP response at 1 once per
        # singular value, so it meets the response to rounding
        enc = self._sigma_one_encodings()["unitary_block"]
        _, seq, _ = family_solutions("invert", kappa=41.0, eps=0.05)
        assert seq.degree == 499
        w = extract_block(enc)
        expect = response_many(seq, np.array([1.0])).real[0] * w
        assert np.max(np.abs(transformed_block(QsvtProgram(enc, seq)) - expect)) <= 1e-13


class TestUnitaryFullProducts:
    """The dense products keep their unitarity at any degree: the seeded
    n = 16 evolution encoding (dim 128) with poly_sign phases used to fail
    the real-part circuit's UNITARY_TOL check from degree 61 on.  They also
    match the literal product at dim 128, on an average and on two
    completions with a singular value of exactly 1."""

    @pytest.fixture(scope="class")
    def evolution(self):
        rng = np.random.default_rng(100)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = 0.5 * (g + g.conj().T)
        h *= 0.9 / np.linalg.norm(h, 2)
        return hamiltonian_simulation(h, 1.0, 5.0, 1e-3)

    @pytest.mark.parametrize("degree", [61, 101, 201])
    def test_real_part_encoding_passes(self, evolution, family_solutions, degree):
        _, seq, _ = family_solutions("poly_sign", d=degree, k=12.0)
        real = real_part_encoding(QsvtProgram(evolution, seq))  # validated at UNITARY_TOL
        assert real.dim == 256

    def test_defects_stay_small_up_to_degree_511(self, evolution, family_solutions):
        for degree in (41, 61, 101, 201, 341, 511):
            _, seq, _ = family_solutions("poly_sign", d=degree, k=12.0)
            phases = seq.as_array()
            for v in _full(evolution, [phases, -phases]):
                assert np.max(np.abs(v.conj().T @ v - np.eye(128))) <= 1.5e-13

    @pytest.mark.parametrize("degree", [3, 41, 201])
    def test_a_near_tolerance_input(self, degree, monkeypatch):
        # U = V (I + 3e-11 x x^T), x the constant unit vector, has defect 9.4e-13,
        # just under UNITARY_TOL: the products stay unitary to rounding only
        # through the engine's Newton-Schulz step, and are off by 2.5e-12 and
        # more without it
        rng = np.random.default_rng(0)
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        x = np.full((64, 1), 1.0 / 8.0)
        pi = np.diag([1.0] * 32 + [0.0] * 32).astype(complex)
        enc = BlockEncoding(np.linalg.qr(g)[0] @ (np.eye(64) + 3e-11 * (x @ x.T)), pi, pi)
        assert enc._defect == pytest.approx(9.4e-13, abs=1e-14)
        phases = np.random.default_rng(degree).uniform(-np.pi, np.pi, degree + 1)
        prog = QsvtProgram(enc, PhaseSequence(tuple(phases), CANONICAL))
        calls = count_eigenframes(monkeypatch)
        v = qsvt_unitary(prog)
        assert calls == [64]  # a dense U takes the eigenframe route
        assert np.max(np.abs(v.conj().T @ v - np.eye(64))) <= 1e-13
        assert real_part_encoding(prog).dim == 128  # validated at UNITARY_TOL

    @staticmethod
    def _inversion_input():
        """embed_general of a 64 x 64 A^dag with one singular value exactly 1."""
        rng = np.random.default_rng(64)
        haar = lambda n: np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        a = np.zeros((64, 64), dtype=complex)
        a[0, 0] = 1.0
        a[1:, 1:] = (haar(63) * rng.uniform(0.05, 0.95, 63)) @ haar(63)
        return embed_general(a.conj().T, 1.0)

    @staticmethod
    def _qubitized_input():
        """qubitize_hermitian of a 64 x 64 H at its norm: signed singular
        values, one of them 1."""
        rng = np.random.default_rng(64)
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        h = 0.5 * (g + g.conj().T)
        return qubitize_hermitian(h, float(np.linalg.norm(h, 2)))

    @pytest.mark.parametrize("name, degree", [("evolution", 61), ("evolution", 201),
                                              ("inversion", 213), ("qubitized", 201)])
    def test_the_literal_product_at_scale(self, evolution, family_solutions, name, degree):
        # the evolution encoding (an average) at degree 201 is held to 1e-12:
        # there the literal product's own rounding reaches 1.7e-13
        tol = 1e-12 if (name, degree) == ("evolution", 201) else 1e-13
        if name == "evolution":
            enc = evolution
            _, seq, _ = family_solutions("poly_sign", d=degree, k=12.0)
        elif name == "qubitized":
            enc = self._qubitized_input()
            assert np.signbit(enc._factors[1]).any()
            _, seq, _ = family_solutions("poly_sign", d=degree, k=12.0)
        else:  # the kappa = 20 inversion phases
            enc = self._inversion_input()
            assert np.count_nonzero(enc._block_svd[1] == 1.0) == 1
            _, seq, _ = family_solutions("invert", kappa=20.0, eps=0.05)
        assert seq.degree == degree
        assert (enc._factors is None) == (name == "evolution")
        phases = seq.as_array()
        for v, sign in zip(_full(enc, [phases, -phases]), (1, -1)):
            assert np.max(np.abs(v - literal_product(enc, sign * phases))) <= tol

    def test_a_corrupted_product_still_raises(self, evolution, family_solutions, monkeypatch):
        _, seq, _ = family_solutions("poly_sign", d=61, k=12.0)

        def corrupted(enc, phase_lists):
            pair = qsvt_engine_full(enc, phase_lists)
            pair[0][3, 5] += 1e-11
            return pair

        qsvt_engine_full = qsvt_engine._full
        monkeypatch.setattr(qsvt_engine, "_full", corrupted)
        with pytest.raises(NotUnitary, match="exceeds 1.0e-12"):
            real_part_encoding(QsvtProgram(evolution, seq))


def _dense_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))


class TestProductCertificates:
    """A completion's dense products carry a first-order bound on their
    unitarity defect, from its factors' Frobenius defects, the 2 x 2 QSP
    unitaries' and the products' rounding (``_reflection_products``).  The
    averages of ``hamiltonian_simulation``, ``matrix_inversion`` and
    ``real_part_encoding`` of a completion read those bounds in place of
    Grams, and their block's SVD from the products' diagonals."""

    @staticmethod
    def _completion(name, rng, n=12):
        if name == "embed_general":
            return embed_general(random_contraction(rng, n), 1.0)
        if name == "grover_signal":
            return grover_signal(16)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (g + g.conj().T)
        norm = float(np.linalg.norm(h, 2))
        return qubitize_hermitian(h, norm if name == "qubitize_at_norm" else 1.25 * norm)

    @pytest.mark.parametrize("name", ["embed_general", "qubitize_hermitian", "qubitize_at_norm",
                                      "grover_signal"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 41, 505, 511])
    def test_the_bound_holds_each_product_and_their_average(self, name, degree):
        rng = np.random.default_rng(degree)
        enc = self._completion(name, rng)
        if name.startswith("qubitize"):
            assert np.signbit(enc._factors[1]).any()
        phases = rng.uniform(-np.pi, np.pi, degree + 1)
        products = qsvt_engine._reflection_products(enc, [phases, -phases])
        for v, bound, _, _ in products:
            assert _dense_defect(v) <= bound <= UNITARY_TOL / 2
        real = real_part_encoding(QsvtProgram(enc, PhaseSequence(tuple(phases), CANONICAL)))
        assert np.mean([bound for _, bound, _, _ in products]) <= real._defect <= UNITARY_TOL / 2
        assert _dense_defect(real.unitary) <= real._defect
        # the block's SVD, read from the diagonals, is the block's
        w, s, vh = real._block_svd
        block = extract_block(real)
        assert np.all(s >= 0.0)
        assert np.max(np.abs((w * s) @ vh - block)) <= 1e-13
        assert np.max(np.abs(np.sort(s) - np.linalg.svd(block, compute_uv=False)[::-1])) <= 1e-13

    @staticmethod
    def _at_the_cap(case):
        """An average of dimension 1024 from a completion's products."""
        rng = np.random.default_rng(1024)
        if case == "hamiltonian_simulation":
            g = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
            h = 0.5 * (g + g.conj().T)
            return lambda: hamiltonian_simulation(h / np.linalg.norm(h, 2), 1.0, 2.0, 0.01)
        if case == "matrix_inversion":
            haar = lambda: np.linalg.qr(rng.standard_normal((256, 256))
                                        + 1j * rng.standard_normal((256, 256)))[0]
            a = (haar() * rng.uniform(0.1, 1.0, 256)) @ haar()
            return lambda: matrix_inversion(a, 10.0, 0.01)
        enc = embed_general(random_contraction(rng, 256), 1.0)
        seq = PhaseSequence(tuple(rng.uniform(-np.pi, np.pi, 506)), CANONICAL)
        return lambda: real_part_encoding(QsvtProgram(enc, seq))

    @pytest.mark.parametrize("case", ["hamiltonian_simulation", "matrix_inversion",
                                      "real_part_encoding"])
    def test_the_bound_at_the_dimension_cap(self, case, monkeypatch):
        # the bounds are 1e-13 to 3e-13 against measured defects near 1e-14:
        # the factor defects and the rounding estimate dominate them
        build, seen = self._at_the_cap(case), []

        def spy(head, *args, bounds, factors):  # the branches, laid out in the head
            seen.extend((_dense_defect(head[:, r]), bound) for r, bound in enumerate(bounds))
            return average(head, *args, bounds=bounds, factors=factors)

        average = qsvt_engine._average
        monkeypatch.setattr(qsvt_engine, "_average", spy)
        enc = build()
        assert enc.dim == 1024 and len(seen) in (2, 4)
        assert all(measured <= bound for measured, bound in seen)
        assert np.mean([bound for _, bound in seen]) <= enc._defect <= UNITARY_TOL / 2
        assert _dense_defect(enc.unitary) <= enc._defect

    @pytest.mark.parametrize("case", ["hamiltonian_simulation", "real_part_encoding",
                                      "a dense encoding"])
    def test_no_gram_and_no_svd_for_a_completion(self, case, rng, monkeypatch):
        # a completion's products are certified by its factors: the average
        # forms no Gram (no conj of a branch) and takes no SVD of its block;
        # a dense encoding's products keep the measured route
        g = random_contraction(rng, 6)
        h = 0.5 * (g + g.conj().T)
        seq = solve_phases(sign_poly(0.1, 0.4))
        completion = embed_general(random_contraction(rng, 6), 1.0)
        dense = BlockEncoding(completion.unitary, completion.proj_right, completion.proj_left)
        hamiltonian_simulation(h, 1.0, 2.0, 0.01)  # solve the phases first
        build = {"hamiltonian_simulation": lambda: hamiltonian_simulation(h, 1.0, 2.0, 0.01),
                 "real_part_encoding": lambda: real_part_encoding(QsvtProgram(completion, seq)),
                 "a dense encoding": lambda: real_part_encoding(QsvtProgram(dense, seq))}[case]

        class Watched(np.ndarray):
            grams = []

            def conj(self):
                Watched.grams.append(self.shape)
                return np.asarray(self).conj()

        def watched(branches, *args, **kwargs):  # a list of branches, or the head
            return average(branches.view(Watched) if isinstance(branches, np.ndarray)
                           else [b.view(Watched) for b in branches], *args, **kwargs)

        average = qsvt_engine._average
        monkeypatch.setattr(qsvt_engine, "_average", watched)
        svd, svds = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: svds.append(np.shape(m))
                            or svd(m, *a, **k))
        build()
        measured = case == "a dense encoding"
        assert (Watched.grams, svds) == (([(12, 12)] * 2, [(6, 6)]) if measured else ([], []))

    def test_factors_within_their_check_can_fail_the_average(self, rng):
        # each factor's Gram is off by about 8e-13 in its largest entry, which
        # passes the factor check, and by about 8e-13 sqrt(5) in Frobenius
        # norm, so the products' bounds pass UNITARY_TOL and the average raises
        w, s, vh = np.linalg.svd(random_contraction(rng, 5))
        enc = block_encoding._complete(w * (1 + 4e-13), s, vh * (1 + 4e-13), 1.0)
        seq = PhaseSequence((0.3, -0.2, 0.5), CANONICAL)
        assert _dense_defect(qsvt_unitary(QsvtProgram(enc, seq))) > UNITARY_TOL
        with pytest.raises(NotUnitary, match="exceeds 1.0e-12"):
            real_part_encoding(QsvtProgram(enc, seq))


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

    @pytest.mark.parametrize("degree", [7, 8], ids=["odd", "even"])
    def test_indefinite_hamiltonian_at_odd_and_even_degree(self, rng, degree):
        # the stored SVD folds each eigenvalue's sign into W, so the transform
        # reads f(lambda) on both sides of 0 at either parity
        q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        lam = np.array([-0.9, -0.6, -0.2, 0.1, 0.5, 0.8])
        h = (q * lam) @ q.conj().T
        h = (h + h.conj().T) / 2
        poly = random_parity_poly(rng, degree)
        seq = solve_phases(poly, SolverOptions(residual_tol=1e-9))
        block = transformed_block(QsvtProgram(qubitize_hermitian(h, 1.0), seq))
        assert np.max(np.abs(block - eigen_oracle(h, poly))) < 1e-8
        # the phases' own response at |lambda|, odd in lambda at odd degree
        lam, q = np.linalg.eigh(h)
        f = response_many(seq, np.abs(lam)).real * np.sign(lam) ** (degree % 2)
        assert np.max(np.abs(block - (q * f) @ q.conj().T)) <= 1e-12

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


class TestStoredBlockSvd:
    """An encoding takes its block's SVD once, when it is built, and
    ``transformed_block`` reads it."""

    @staticmethod
    def _count_svds(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_one_svd_per_embed_and_transform(self, rng, monkeypatch):
        a = random_contraction(rng, 16)
        seq = solve_phases(sign_poly(0.1, 0.4))
        calls = self._count_svds(monkeypatch)
        enc = embed_general(a, 1.0)
        assert calls == [(16, 16)]  # embed_general's own, of A
        transformed_block(QsvtProgram(enc, seq))
        assert calls == [(16, 16)]

    def test_a_read_encoding_takes_its_one_svd_when_built(self, rng, monkeypatch):
        text = encoding_to_json(embed_general(random_contraction(rng, 16), 1.0))
        seq = solve_phases(sign_poly(0.1, 0.4))
        calls = self._count_svds(monkeypatch)
        enc = encoding_from_json(text)
        assert calls == [(16, 16)]  # the constructor's, of the range block
        transformed_block(QsvtProgram(enc, seq))
        assert calls == [(16, 16)]


class TestOneEigenframePerCall:
    """A dense call on a completion takes no ``_eigenframe`` and on any other
    encoding one, of the product of its two reflections, for all its phase
    lists; phase estimation takes one of U per run; the block read takes
    none."""

    def test_dense_callers(self, rng, monkeypatch):
        h = random_contraction(rng, 4)
        h = 0.5 * (h + h.conj().T)
        a = np.diag([0.9, 0.7, 0.5, 0.3]) @ np.linalg.qr(random_contraction(rng, 4))[0]
        prog = QsvtProgram(embed_general(random_contraction(rng, 4), 1.0),
                           solve_phases(sign_poly(0.1, 0.4)))
        enc = prog.encoding
        dense = QsvtProgram(BlockEncoding(enc.unitary, enc.proj_right, enc.proj_left),
                            prog.phases)
        calls = count_eigenframes(monkeypatch)
        hamiltonian_simulation(h, 1.0, 2.0, 0.01)  # its four phase lists, on a completion
        matrix_inversion(a, 4.0, 0.05)
        real_part_encoding(prog)
        transformed_block(prog)
        assert calls == []
        real_part_encoding(dense)
        assert calls == [8]
        qsvt_unitary(dense)
        transformed_block(dense)
        assert calls == [8, 8]

    def test_phase_estimation(self, monkeypatch):
        u = np.diag(np.exp(2j * np.pi * np.array([0.125, 0.25, 0.5, 0.75])))
        calls = count_eigenframes(monkeypatch)
        phase_estimation_record(u, np.eye(4)[1], 3, 0.1, exact=True)
        assert calls == [4]
        order_finding_demo(7, 15, seed=1)
        assert calls == [4, 15]


class TestNoUnitaryFormed:
    """The pipelines read a completion's dense products from its factors, so
    none of them forms the completion's U."""

    @staticmethod
    def _spy_completions(monkeypatch):
        built = []

        def spying(*args):
            built.append(complete(*args))
            return built[-1]

        complete = block_encoding._complete
        for module in (block_encoding, algorithms):
            monkeypatch.setattr(module, "_complete", spying)
        return built

    def test_the_pipelines(self, rng, monkeypatch):
        h = random_contraction(rng, 4)
        h = 0.5 * (h + h.conj().T)
        a = np.diag([0.9, 0.7, 0.5, 0.3]) @ np.linalg.qr(random_contraction(rng, 4))[0]
        built = self._spy_completions(monkeypatch)
        hamiltonian_simulation(h, 1.0, 2.0, 0.01)
        matrix_inversion(a, 4.0, 0.05)
        qsvt_search(3, 5, delta=0.1, seed=1, exact=True)
        assert len(built) == 3
        assert not any("unitary" in enc.__dict__ for enc in built)

    def test_qsvt_unitary_of_a_completion(self, rng):
        enc = embed_general(random_contraction(rng, 8), 1.0)
        seq = solve_phases(sign_poly(0.1, 0.4))
        prog = QsvtProgram(enc, seq)
        v = qsvt_unitary(prog)
        real_part_encoding(prog)
        assert "unitary" not in enc.__dict__
        assert np.max(np.abs(v - literal_product(enc, seq.as_array()))) <= 1e-13


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


def literal_amplification(u, a0, b0, phases):
    """<A0| [prod_k U B(phi_{2k}) U^dag A(phi_{2k+1})] U |B0> as a loop over
    dense N x N rank-1 phase matrices: the engine call's reference."""

    def rank1_phase(vec, phi):
        return np.eye(len(vec), dtype=complex) + (np.exp(1j * phi) - 1.0) * np.outer(
            vec, vec.conj()
        )

    m = np.eye(u.shape[0], dtype=complex)
    for k in range(0, len(phases), 2):
        m = m @ u @ rank1_phase(b0, phases[k]) @ u.conj().T @ rank1_phase(a0, phases[k + 1])
    m = m @ u
    return complex(a0.conj() @ m @ b0)


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


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

    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_the_literal_loop_on_dense_states(self, n):
        # A0 and B0 with no zero entry: the projectors take the dense frame
        rng = np.random.default_rng(n)
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        a0, b0 = random_unit(rng, n), random_unit(rng, n)
        # a cyclic shift of 16 states with A0 exactly orthogonal to U B0 (their
        # entries are +-1/4, so every product is exact): arg a is undefined
        shift = np.roll(np.eye(16), 1, axis=0)
        flat, signs = np.full(16, 0.25), np.resize([0.25, -0.25], 16)
        assert np.vdot(flat, shift @ signs) == 0.0
        for count in range(0, 21, 2):
            phases = list(rng.uniform(-np.pi, np.pi, count))
            for u_, a0_, b0_ in ((u, a0, b0), (shift, flat, signs)):
                val = amplitude_amplification_matrix_element(u_, a0_, b0_, phases)
                assert abs(val - literal_amplification(u_, a0_, b0_, phases)) <= 1e-13

    def test_rejects_a_non_unitary(self, search_setup):
        u, a0, b0 = search_setup
        with pytest.raises(NotUnitary):
            amplitude_amplification_matrix_element(1.1 * u, a0, b0, [0.1, 0.2])

    def test_rejects_mismatched_lengths(self, search_setup):
        u, a0, b0 = search_setup
        with pytest.raises(DomainError, match="match the unitary dimension"):
            amplitude_amplification_matrix_element(u, a0, b0[:8], [0.1, 0.2])

    def test_rejects_a_dimension_past_the_cap(self):
        b0 = np.zeros(1025)
        b0[0] = 1.0
        with pytest.raises(DomainError, match="dimension 1025 exceeds the cap 1024"):
            amplitude_amplification_matrix_element(np.eye(1025), b0, b0, [])
