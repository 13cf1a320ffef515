import numpy as np
import pytest

from qsvtsim import (
    CANONICAL,
    Basis,
    Convention,
    DomainError,
    ParityError,
    PhaseSequence,
    UnsupportedConversion,
    convert_convention,
    evaluate_sequence,
    laurent_from_pq,
    phase_sequence_from_json,
    phase_sequence_to_json,
    pq_from_sequence,
    processing_operator,
    response,
    response_curve,
    response_many,
    signal_operator,
)
from qsvtsim.qsp_core import phases_equal_mod_2pi

WX00 = Convention.wx(Basis.ZERO_ZERO)


def test_signal_operator_wx_limits():
    assert np.allclose(signal_operator(1.0, WX00), np.eye(2))
    assert np.allclose(signal_operator(0.0, WX00), np.array([[0, 1j], [1j, 0]]))


def test_signal_operator_reflection_value():
    r = signal_operator(0.6, Convention.reflection())
    assert np.allclose(r, [[0.6, 0.8], [0.8, -0.6]])
    assert np.allclose(r @ r, np.eye(2))


def test_signal_operator_domain_error():
    with pytest.raises(DomainError):
        signal_operator(1.001, WX00)


@pytest.mark.parametrize("convention", [WX00, Convention.wz()], ids=["wx", "wz"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda seq, v: response(seq, v),
        lambda seq, v: evaluate_sequence(seq, v),
        lambda seq, v: signal_operator(v, seq.convention),
        lambda seq, v: response_curve(seq, [0.5, v]),
    ],
    ids=["response", "evaluate_sequence", "signal_operator", "response_curve"],
)
def test_nonfinite_signal_values_rejected(call, bad, convention):
    seq = PhaseSequence((0.1, 0.2, 0.3), convention)
    with pytest.raises(DomainError, match="finite"):
        call(seq, bad)


def test_processing_operator_values():
    assert np.allclose(processing_operator(0.0), np.eye(2))
    assert np.allclose(processing_operator(np.pi / 2), np.diag([1j, -1j]))
    sx = processing_operator(np.pi / 2, Convention.wz())
    assert np.allclose(sx, np.array([[0, 1j], [1j, 0]]))


def test_constructible_conventions_only():
    with pytest.raises(UnsupportedConversion):
        Convention(
            signal=Convention.wz().signal,
            processing=Convention.wx().processing,
            basis=Basis.ZERO_ZERO,
        )


@pytest.mark.parametrize(
    "phases,target",
    [
        ((0.0, 0.0), lambda a: a),
        ((0.0, 0.0, 0.0), lambda a: 2 * a * a - 1),
        ((0.0, 0.0, 0.0, 0.0), lambda a: a * (4 * a * a - 3)),
    ],
)
def test_trivial_phases_give_chebyshev(phases, target):
    seq = PhaseSequence(phases, WX00)
    for a in np.linspace(-1, 1, 11):
        assert abs(response(seq, a) - target(a)) < 1e-12


def test_all_zero_phases_match_t_d():
    for d in range(1, 9):
        seq = PhaseSequence((0.0,) * (d + 1), WX00)
        grid = np.linspace(-1, 1, 41)
        ref = np.cos(d * np.arccos(grid))
        assert np.max(np.abs(response_many(seq, grid) - ref)) < 1e-12


def test_bb1_closed_form():
    eta = 0.5 * np.arccos(-0.25)
    seq = PhaseSequence((np.pi / 2, -eta, 2 * eta, 0.0, -2 * eta, eta), WX00)
    thetas = np.linspace(0.0, 2 * np.pi, 101)
    c = np.cos(thetas / 2)
    formula = (1 / 8) * c**2 * (3 * c**8 - 15 * c**6 + 35 * c**4 - 45 * c**2 + 30)
    probs = np.abs(response_many(seq, c)) ** 2
    assert np.max(np.abs(probs - formula)) < 1e-10
    # the a = 1 limit leaves the qubit unflipped
    assert abs(abs(response(seq, 1.0)) ** 2 - 1.0) < 1e-12


def test_unitarity_invariant(rng):
    for _ in range(30):
        d = int(rng.integers(1, 21))
        seq = PhaseSequence(tuple(rng.uniform(-np.pi, np.pi, d + 1)), CANONICAL)
        for a in np.linspace(-1, 1, 101):
            u = evaluate_sequence(seq, a)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12


def _fit_parity_poly(nodes, values, degree):
    basis = np.cos(np.outer(np.arccos(nodes), np.arange(degree % 2, degree + 1, 2)))
    coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return lambda x: np.cos(np.outer(np.arccos(x), np.arange(degree % 2, degree + 1, 2))) @ coeffs


def test_entry_is_parity_polynomial(rng):
    # <0|U|0> is a degree-d polynomial with parity d mod 2
    for _ in range(20):
        d = int(rng.integers(1, 21))
        seq = PhaseSequence(tuple(rng.uniform(-np.pi, np.pi, d + 1)), WX00)
        nodes = np.cos((2 * np.arange(d + 1) + 1) * np.pi / (2 * (d + 1)))
        vals = response_many(seq, nodes)
        fit = _fit_parity_poly(nodes, vals, d)
        assert np.max(np.abs(fit(nodes) - vals)) < 1e-9
        fresh = np.linspace(-0.95, 0.95, 53)
        assert np.max(np.abs(fit(fresh) - response_many(seq, fresh))) < 1e-8


def test_pq_normalization_identity(rng):
    # |P|^2 + (1 - a^2) |Q|^2 = 1 for the fitted polynomial pair
    for _ in range(15):
        d = int(rng.integers(1, 21))
        seq = PhaseSequence(tuple(rng.uniform(-np.pi, np.pi, d + 1)), CANONICAL)
        p, q = pq_from_sequence(seq)
        grid = np.linspace(-0.99, 0.99, 101)
        pv = np.polynomial.chebyshev.chebval(grid, p)
        k = np.arange(1, d + 1)
        theta = np.arccos(grid)
        qv = (np.sin(np.outer(theta, k)) / np.sin(theta)[:, None]) @ q[1:]
        identity = np.abs(pv) ** 2 + (1 - grid**2) * np.abs(qv) ** 2
        assert np.max(np.abs(identity - 1.0)) < 1e-10


def test_response_curve_shapes(family_solutions):
    seq = PhaseSequence((0.1, -0.2, 0.3), CANONICAL)
    assert response_curve(seq, []) == []
    [(a, v)] = response_curve(seq, [0.25])
    assert a == 0.25 and abs(v - response(seq, 0.25)) < 1e-14
    with pytest.raises(DomainError):
        response_curve(seq, [1.5])
    # a solved sign family reproduces a sign-like curve; degree 19 at
    # steepness 10 wiggles to ~0.112 just past the window, so the sampled
    # bound is frozen at 0.12
    _, sign_seq, _ = family_solutions("poly_sign", d=19, k=10.0)
    curve = response_curve(sign_seq, np.linspace(-1, 1, 400))
    errs = [abs(v.real - np.sign(a)) for a, v in curve if abs(a) > 0.2]
    assert max(errs) <= 0.12


def test_convert_reflection_roundtrip(rng):
    grid = np.linspace(-1, 1, 201)
    for d in range(1, 7):
        phases = tuple(rng.uniform(-np.pi, np.pi, d + 1))
        wx = PhaseSequence(phases, WX00)
        refl = convert_convention(wx, Convention.reflection(Basis.ZERO_ZERO))
        assert np.max(np.abs(response_many(wx, grid) - response_many(refl, grid))) < 1e-10
        back = convert_convention(refl, WX00)
        assert phases_equal_mod_2pi(back.as_array(), wx.as_array())


def test_convert_reflection_spec_example():
    refl = convert_convention(PhaseSequence((0.0, 0.0), WX00), Convention.reflection())
    assert phases_equal_mod_2pi(refl.as_array(), [np.pi / 4, -np.pi / 4])


def test_convert_identity_and_unsupported():
    seq = PhaseSequence((0.2, 0.3), CANONICAL)
    assert convert_convention(seq, CANONICAL) is seq
    with pytest.raises(UnsupportedConversion):
        # odd degree cannot keep the ++ response across the reflection map
        convert_convention(seq, Convention.reflection(Basis.PLUS_PLUS))
    with pytest.raises(UnsupportedConversion):
        convert_convention(PhaseSequence((0.2, 0.3), WX00), Convention.wz())


def test_convert_wz_roundtrip(rng):
    phases = tuple(rng.uniform(-np.pi, np.pi, 7))
    wx = PhaseSequence(phases, CANONICAL)
    wz = convert_convention(wx, Convention.wz())
    back = convert_convention(wz, CANONICAL)
    assert phases_equal_mod_2pi(back.as_array(), wx.as_array(), 1e-12)
    grid = np.linspace(-0.999, 0.999, 201)
    theta = 2 * np.arccos(grid)
    assert np.max(np.abs(response_many(wx, grid) - response_many(wz, theta))) < 1e-10


def test_laurent_mapping_examples():
    pair = laurent_from_pq([0.0, 1.0], [0.0, 0.0])
    assert np.allclose(pair.f_coeffs, [0.5, 0.0, 0.5])
    assert np.allclose(pair.g_coeffs, 0.0)
    pair = laurent_from_pq([0.0, 0.0], [0.0, 1j])
    assert np.allclose(pair.g_coeffs, [0.5, 0.0, -0.5])
    with pytest.raises(ParityError):
        laurent_from_pq([1.0, 1.0], [0.0, 0.0])


def test_laurent_unitarity_from_sequence(rng):
    for d in (3, 6, 9):
        seq = PhaseSequence(tuple(rng.uniform(-np.pi, np.pi, d + 1)), CANONICAL)
        pair = laurent_from_pq(*pq_from_sequence(seq))
        assert pair.unitarity_defect(64) < 1e-10
        # coefficients of parity opposite to d mod 2 vanish
        idx = np.arange(-d, d + 1)
        off = (np.abs(idx) % 2) != (d % 2)
        assert np.max(np.abs(pair.f_coeffs[off])) < 1e-10
        assert np.max(np.abs(pair.g_coeffs[off])) < 1e-10


def test_phase_sequence_validation_and_json():
    with pytest.raises(DomainError):
        PhaseSequence((), CANONICAL)
    with pytest.raises(DomainError):
        PhaseSequence((np.nan,), CANONICAL)
    seq = PhaseSequence((0.25, -1.5, 2.0), Convention.wz())
    again = phase_sequence_from_json(phase_sequence_to_json(seq))
    assert again == seq


ALL_CONVENTIONS = [
    CANONICAL,
    WX00,
    Convention.reflection(Basis.ZERO_ZERO),
    Convention.reflection(Basis.PLUS_PLUS),
    Convention.wz(),
]


def _literal_unitaries(phases, values, convention):
    """S(phi_0) W S(phi_1) ... W S(phi_d) at each value, multiplied out from
    the public operator matrices."""
    out = []
    for v in values:
        w = signal_operator(v, convention)
        u = processing_operator(phases[0], convention)
        for phi in phases[1:]:
            u = u @ w @ processing_operator(phi, convention)
        out.append(u)
    return np.array(out)


@pytest.mark.parametrize(
    "convention", ALL_CONVENTIONS, ids=lambda c: f"{c.signal.value}-{c.basis.value}"
)
@pytest.mark.parametrize("degree", [0, 1, 2, 7, 101])
def test_sweep_matches_literal_product(convention, degree):
    rng = np.random.default_rng(1000 + degree)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    seq = PhaseSequence(tuple(phases), convention)
    if convention == Convention.wz():
        # theta in (2 pi, 4 pi) and theta < 0 give sin(theta/2) < 0
        values = np.concatenate([
            rng.uniform(0.0, 2 * np.pi, 8),
            rng.uniform(2 * np.pi, 4 * np.pi, 8),
            rng.uniform(-4 * np.pi, 0.0, 8),
            [0.0, np.pi, 2 * np.pi, 3 * np.pi],
        ])
    else:
        values = np.concatenate([rng.uniform(-1.0, 1.0, 24), [-1.0, 0.0, 1.0]])
    u = _literal_unitaries(phases, values, convention)
    if convention.basis is Basis.ZERO_ZERO:
        expected = u[:, 0, 0]
    else:
        expected = 0.5 * u.sum(axis=(1, 2))
    assert np.max(np.abs(response_many(seq, values) - expected)) <= 1e-14
    for v, ref in zip(values[::6], u[::6]):
        assert np.max(np.abs(evaluate_sequence(seq, v) - ref)) <= 1e-14

    # (P, Q) is row 0 of the sequence unitary, which no readout basis
    # changes; WZ's is read in the Hadamard frame, where the signal angle
    # 2 theta is the WX signal a = cos(theta)
    p, q = pq_from_sequence(seq)
    # reference coefficients by discrete orthogonality of cos(k theta) and
    # sin(k theta) on n > d first-kind Chebyshev angles:
    # P = sum p_k T_k(cos theta) and i Q sqrt(1 - a^2) = i sum q_k sin(k theta)
    n = 2 * (degree + 2)
    theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    if convention == Convention.wz():
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        u = h @ _literal_unitaries(phases, 2 * theta, convention) @ h
    else:
        u = _literal_unitaries(phases, np.cos(theta), convention)
    k = np.arange(degree + 1)
    p_ref = (2.0 / n) * np.cos(np.outer(k, theta)) @ u[:, 0, 0]
    p_ref[0] /= 2
    q_ref = (2.0 / n) * np.sin(np.outer(k, theta)) @ (u[:, 0, 1] / 1j)
    assert np.max(np.abs(p - p_ref)) <= 1e-14
    assert np.max(np.abs(q - q_ref)) <= 1e-14
