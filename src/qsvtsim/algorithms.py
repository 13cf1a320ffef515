"""End-to-end algorithm simulations built on the QSVT engine.

Each run is seeded and replayable; exact mode replaces measurement sampling
with decisions taken from exactly computed outcome probabilities, which
the deterministic correctness tests exercise.  Blocks are produced
by the honest engine circuits (phase products, plus the real-part ancilla
where a full unitary is used), never by the verification oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .block_encoding import (
    BlockEncoding,
    _average,
    _require_dim,
    _square,
    embed_general,
    grover_signal,
    phase_oracle_block,
    qubitize_hermitian,
    require_unitary,
    shift_positive,
)
from .errors import (
    ConditionViolated,
    DomainError,
    GiveUp,
    NotHermitian,
    OrderNotFound,
)
from .phase_solver import SolverOptions, solve_phases
from .poly_approx import (
    eigenvalue_threshold_poly,
    jacobi_anger_cos,
    jacobi_anger_sin,
    matrix_inversion_poly,
    phase_estimation_poly,
    sign_poly,
    solve_truncation,
)
from .qsp_core import PhaseSequence
from .qsvt_engine import QsvtProgram, _conjugate_pair, real_part_encoding, transformed_block

# every algorithm here budgets polynomial error >= 5e-3, so the internal
# tolerance stays far below any consumer's epsilon; step-like targets touch
# the unit bound and certify at about half this tolerance
_SOLVE = SolverOptions(residual_tol=1e-4)
_LOOP_CAP = 1000


@dataclass
class RunRecord:
    """Replayable trace of one algorithm run."""

    algorithm: str
    params: dict
    seed: int
    shots: list
    decision: object
    queries: int
    trace: list = field(default_factory=list)

    def to_json(self) -> str:
        def default(obj):
            if isinstance(obj, (np.integer,)):
                return int(obj)
            if isinstance(obj, (np.floating,)):
                return float(obj)
            if isinstance(obj, PhaseEstimate):
                return {"theta_bits": obj.theta_bits, "n": obj.n, "value": obj.value}
            raise TypeError(f"not serializable: {type(obj)}")

        payload = {
            "algorithm": self.algorithm,
            "params": self.params,
            "seed": self.seed,
            "shots": self.shots,
            "decision": self.decision,
            "queries": self.queries,
            "trace": self.trace,
        }
        return json.dumps(payload, sort_keys=True, default=default)


@dataclass(frozen=True)
class PhaseEstimate:
    """Binary-fraction phase estimate theta_0.theta_1 ... theta_n."""

    theta_bits: tuple
    n: int

    @property
    def value(self) -> float:
        return float(self.theta_bits[0]) + sum(
            b / 2.0**i for i, b in enumerate(self.theta_bits[1:], start=1)
        )


# ---------------------------------------------------------------------------
# Cached phase synthesis (deterministic, so safe to memoize)


@lru_cache(maxsize=512)
def _phases(constructor, *args) -> PhaseSequence:
    """Phases of the target ``constructor(*args)``, solved once per key."""
    return solve_phases(constructor(*args), _SOLVE)


def _hamsim_phases(t: float, epsilon: float):
    # quarter-budget truncations: each rescaled component is epsilon/2
    # accurate, so the cos - i sin combination meets epsilon overall
    return (_phases(jacobi_anger_cos, t, epsilon / 4.0),
            _phases(jacobi_anger_sin, t, epsilon / 4.0))


# ---------------------------------------------------------------------------
# Unstructured search


def qsvt_search(
    n_qubits: int,
    marked: int,
    delta: float,
    big_delta: float | None = None,
    seed: int = 0,
    exact: bool = False,
) -> RunRecord:
    """Locate the marked index with the sign-polynomial amplification.

    The problem qubitizes onto the 2-dimensional span of the start state
    and the marked state; the run samples (ancilla, register) outcomes and
    repeats until the ancilla projects onto the transformed block.  Exact
    mode records the marked amplitude instead of sampling.
    """
    n = 2**n_qubits
    if not 0 <= marked < n:
        raise DomainError("marked index out of range")
    a = 1.0 / math.sqrt(n)
    if big_delta is None:
        big_delta = 1.5 / math.sqrt(n)
    if big_delta > 2.0 / math.sqrt(n) + 1e-12:
        raise DomainError("the transition width must satisfy Delta <= 2/sqrt(N)")
    phases = _phases(sign_poly, delta / 2.0, big_delta)
    prog = QsvtProgram(grover_signal(n), phases)
    enc = real_part_encoding(prog)
    # basis order: (ancilla 0/1) x (marked, unmarked); input is the start state
    state0 = np.zeros(4, dtype=complex)
    state0[0] = 1.0
    final = enc.unitary @ state0
    probs = np.abs(final) ** 2
    degree = phases.degree
    marked_amp = complex(final[0])

    params = {
        "n_qubits": n_qubits,
        "marked": marked,
        "delta": delta,
        "big_delta": big_delta,
        "poly_degree": degree,
        "exact": exact,
    }
    if exact:
        params["marked_amplitude"] = abs(marked_amp)
        return RunRecord("search", params, seed, [], marked, degree)

    rng = np.random.default_rng(seed)
    shots = []
    queries = 0
    for _ in range(_LOOP_CAP):
        outcome = int(rng.choice(4, p=probs / probs.sum()))
        queries += degree
        shots.append(outcome)
        if outcome < 2:  # ancilla in the block branch: measure the register
            if outcome == 0:
                decision = marked
            else:
                unmarked = [i for i in range(n) if i != marked]
                decision = int(unmarked[rng.integers(len(unmarked))])
            return RunRecord("search", params, seed, shots, decision, queries)
    raise GiveUp("search loop cap reached without projecting onto the block")


# ---------------------------------------------------------------------------
# Eigenvalue threshold decision


def threshold_repetitions(zeta: float, delta: float) -> int:
    return int(math.ceil(9.0 / (2.0 * zeta**4) * math.log(1.0 / delta)))


def eigenvalue_threshold(
    h: np.ndarray,
    alpha: float,
    lambda_th: float,
    delta_lambda: float,
    zeta: float,
    delta: float,
    psi: np.ndarray,
    seed: int = 0,
    exact: bool = False,
    epsilon: float | None = None,
) -> RunRecord:
    """Decide whether any eigenvalue lies below lambda_th - delta_lambda.

    The spectrum is made positive by the shift circuit, a symmetric step
    polynomial is applied at the shifted cut, and repeated one-qubit
    measurements distinguish the two Bernoulli means.  Decision True means
    "a low eigenvalue exists".
    """
    enc = shift_positive(qubitize_hermitian(h, alpha))
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    if epsilon is None:
        epsilon = zeta / 4.0
    cut = 0.5 * (lambda_th / alpha + 1.0)
    width = delta_lambda / alpha
    phases = _phases(eigenvalue_threshold_poly, epsilon, width, cut)
    block = transformed_block(QsvtProgram(enc, phases))
    u = block @ psi
    p0 = 0.5 * float(np.linalg.norm(psi + u) ** 2) / (1.0 + float(np.linalg.norm(u) ** 2))

    low_mean = zeta**2 * (1.0 - epsilon)
    high_mean = 0.5 * epsilon**2
    reps = threshold_repetitions(zeta, delta)
    params = {
        "alpha": alpha,
        "lambda_th": lambda_th,
        "delta_lambda": delta_lambda,
        "zeta": zeta,
        "delta": delta,
        "epsilon": epsilon,
        "repetitions": reps,
        "p0": p0,
        "low_mean": low_mean,
        "high_mean": high_mean,
        "exact": exact,
    }
    degree = phases.degree
    if exact:
        decision = bool(abs(p0 - low_mean) < abs(p0 - high_mean))
        return RunRecord("threshold", params, seed, [], decision, reps * degree)
    rng = np.random.default_rng(seed)
    shots = (rng.random(reps) < p0).astype(int).tolist()
    frac = float(np.mean(shots))
    decision = bool(abs(frac - low_mean) < abs(frac - high_mean))
    params["zero_fraction"] = frac
    return RunRecord("threshold", params, seed, shots, decision, reps * degree)


def bernoulli_sample_count(a_mean: float, b_mean: float, delta: float) -> int:
    """Samples sufficient to tell two Bernoulli means apart, error <= delta."""
    if not 0.0 <= a_mean < b_mean <= 1.0:
        raise DomainError("means must satisfy 0 <= a < b <= 1")
    if not 0.0 < delta < 1.0:
        raise DomainError("failure budget must lie in (0, 1)")
    return int(math.ceil(2.0 / (b_mean - a_mean) ** 2 * math.log(1.0 / delta)))


# ---------------------------------------------------------------------------
# Phase estimation


def _pe_block(u: np.ndarray, j: int, theta: Fraction, phases: PhaseSequence) -> np.ndarray:
    """Step-transformed block of (I + exp(-2 pi i theta) U^(2^j)) / 2."""
    enc = phase_oracle_block(u, j, float(theta) % 2.0)
    return transformed_block(QsvtProgram(enc, phases))


# resolution of the ones-place carry probe as a fraction of a full turn at
# the amplified (j = n-1) scale; phases within this distance of an integer
# may present as 0.00...0 instead of 1.00...0 (the two differ only by the
# mod-1 bookkeeping of the estimate)
CARRY_RESOLUTION = Fraction(1, 256)


def _measure(state: np.ndarray, block: np.ndarray, rng, exact: bool):
    """One controlled-block measurement: returns (bit, p1, collapsed state)."""
    b1 = 0.5 * (state + block @ state)
    b0 = 0.5 * (state - block @ state)
    w1 = float(np.linalg.norm(b1) ** 2)
    w0 = float(np.linalg.norm(b0) ** 2)
    p1 = w1 / (w0 + w1)
    if exact:
        bit = int(p1 >= 0.5)
    else:
        bit = int(rng.random() < p1)
    branch = b1 if bit else b0
    return bit, p1, branch / np.linalg.norm(branch)


def _voted_measure(state, block, rng, exact, votes):
    """Majority of repeated measurements; sensible for eigenvector inputs,
    where each repetition is independent of the collapse history."""
    ones = 0
    p_last = None
    for _ in range(votes):
        bit, p_last, state = _measure(state, block, rng, exact)
        ones += bit
    return int(2 * ones > votes), ones, p_last, state


def _run_phase_estimation(
    u: np.ndarray,
    state: np.ndarray,
    n: int,
    phases: PhaseSequence,
    rng,
    exact: bool,
    phase_errors=None,
    majority_votes: int = 1,
    escalate_ambiguous: bool = False,
    _escalations: int = 0,
):
    """Bit-by-bit loop of the step polynomial's ``phases`` on u; returns
    (estimate, trace, queries, state).

    After the n fractional bits, the ones place records whether the nearest
    n-bit value was reached by rounding up through 1.0.  That carry is only
    possible when every measured bit is zero, and the magnitude-only
    singular values cannot see it at j = 0 with the accumulated theta; it
    is read out instead with a quarter-turn-offset probe at the amplified
    j = n - 1 scale, which flips sign exactly when the phase sits just
    below an integer.

    Optional strategies (both default off): ``majority_votes`` repeats each
    measurement and takes the majority, tolerating per-shot error rates up
    to O(1); ``escalate_ambiguous`` restarts one iteration deeper when the
    first (and only transition-vulnerable) bit's votes come out ambiguous,
    then rounds the deeper estimate back to n bits.
    """
    degree = phases.degree
    theta = Fraction(0)
    bits_rev = []  # theta_1..theta_n as collected, most significant last
    trace = []
    queries = 0
    initial_state = state
    for step, j in enumerate(range(n - 1, -1, -1)):
        theta = theta / 2
        err = 0.0 if phase_errors is None else float(phase_errors[step])
        theta_eff = theta - Fraction(err).limit_denominator(1 << 40) if err else theta
        block = _pe_block(u, j, theta_eff, phases)
        bit, ones, p1, state = _voted_measure(state, block, rng, exact, majority_votes)
        queries += degree * majority_votes
        trace.append({"j": j, "theta": float(theta), "p1": p1, "bit": bit,
                      "votes": ones})
        if (
            escalate_ambiguous
            and step == 0
            and majority_votes >= 3
            and _escalations < 3
            and abs(ones / majority_votes - 0.5) <= 0.25
        ):
            # ambiguous leading bit: the transform sits near its transition;
            # restart one iteration deeper and round back to n bits
            est, deep_trace, deep_q, state = _run_phase_estimation(
                u, initial_state, n + 1, phases, rng, exact, None,
                majority_votes, escalate_ambiguous, _escalations + 1,
            )
            rounded = (round(est.value * 2**n) / 2**n) % 2.0
            whole = int(rounded)
            frac = int(round((rounded - whole) * 2**n))
            bits = (whole,) + tuple((frac >> (n - 1 - i)) & 1 for i in range(n))
            trace.append({"escalated_to": n + 1})
            trace.extend(deep_trace)
            return PhaseEstimate(bits, n), trace, queries + deep_q, state
        theta = Fraction(bit, 2) + theta
        bits_rev.append(bit)

    ones_bit = 0
    if not any(bits_rev):
        probe = Fraction(1, 4) - CARRY_RESOLUTION  # theta is exactly 0 here
        ones_bit, _, p1, state = _voted_measure(
            state, _pe_block(u, n - 1, probe, phases), rng, exact, majority_votes
        )
        queries += degree * majority_votes
        trace.append({"j": n - 1, "theta": float(probe), "p1": p1, "bit": ones_bit,
                      "ones_place": True})
    theta_bits = (ones_bit,) + tuple(reversed(bits_rev))
    return PhaseEstimate(theta_bits, n), trace, queries, state


def qsvt_phase_estimation(
    u: np.ndarray,
    eigvec: np.ndarray,
    n: int,
    epsilon: float,
    big_delta: float = 0.2,
    seed: int = 0,
    exact: bool = False,
    phase_errors=None,
    majority_votes: int = 1,
    escalate_ambiguous: bool = False,
) -> PhaseEstimate:
    """n-bit estimate of the eigenphase of u on the given eigenvector."""
    return phase_estimation_record(
        u, eigvec, n, epsilon, big_delta, seed, exact, phase_errors,
        majority_votes, escalate_ambiguous,
    ).decision


def phase_estimation_record(
    u: np.ndarray,
    eigvec: np.ndarray,
    n: int,
    epsilon: float,
    big_delta: float = 0.2,
    seed: int = 0,
    exact: bool = False,
    phase_errors=None,
    majority_votes: int = 1,
    escalate_ambiguous: bool = False,
) -> RunRecord:
    """Phase estimation with the full per-iteration trace recorded."""
    u = require_unitary(np.asarray(u, dtype=complex), 1e-10)
    state = np.asarray(eigvec, dtype=complex)
    state = state / np.linalg.norm(state)
    if n < 1:
        raise DomainError("need at least one bit")
    if majority_votes < 1 or majority_votes % 2 == 0:
        raise DomainError("majority_votes must be a positive odd count")
    if majority_votes == 1 and epsilon > math.sqrt(2.0 / (n + 1)) + 1e-12:
        raise DomainError("epsilon too large for the per-iteration union bound")
    phases = _phases(phase_estimation_poly, epsilon, big_delta)
    rng = np.random.default_rng(seed)
    estimate, trace, queries, _ = _run_phase_estimation(
        u, state, n, phases, rng, exact, phase_errors, majority_votes, escalate_ambiguous,
    )
    params = {
        "n": n,
        "epsilon": epsilon,
        "big_delta": big_delta,
        "exact": exact,
        "majority_votes": majority_votes,
        "escalate_ambiguous": escalate_ambiguous,
        "theta": estimate.value,
    }
    shots = [t["bit"] for t in trace if "bit" in t]
    return RunRecord("qpe", params, seed, shots, estimate, queries, trace)


def pe_epsilon_for(delta: float, n: int) -> float:
    """Largest per-iteration epsilon meeting the 1-delta success budget."""
    return math.sqrt(2.0 * delta / (n + 1))


# ---------------------------------------------------------------------------
# Order finding (factoring demo)


def _modmul_unitary(x: int, n_mod: int) -> np.ndarray:
    u = np.zeros((n_mod, n_mod), dtype=complex)
    for j in range(n_mod):
        u[(x * j) % n_mod, j] = 1.0
    return u


def _continued_fraction_denominators(value: float, max_den: int):
    """Denominators of the continued-fraction convergents of value."""
    dens = []
    frac = Fraction(value).limit_denominator(1 << 40)
    a_list = []
    num, den = frac.numerator, frac.denominator
    while den:
        a_list.append(num // den)
        num, den = den, num % den
    k_prev, k = 0, 1
    for a in a_list[1:]:
        k_prev, k = k, a * k + k_prev
        if k > max_den:
            break
        dens.append(k)
    return dens


def _reduce_to_order(x: int, n_mod: int, candidate: int) -> int:
    """Smallest divisor r of the candidate with x^r = 1 (mod n_mod)."""
    divisors = sorted(d for d in range(1, candidate + 1) if candidate % d == 0)
    for d in divisors:
        if pow(x, d, n_mod) == 1:
            return d
    return candidate


def order_finding_demo(
    x: int, n_mod: int, delta: float = 0.1, seed: int = 0, retries: int = 5
) -> RunRecord:
    """Recover the multiplicative order of x mod N via phase estimation.

    Starts from |1>, the uniform superposition of the oracle eigenstates,
    lets the bit measurements collapse it onto one eigenphase s/r, and runs
    continued fractions (with small multiples) on the estimate.
    """
    if n_mod > 64:
        raise DomainError("demo supports moduli up to 64")
    if math.gcd(x, n_mod) != 1:
        raise DomainError("x must be coprime to the modulus")
    n = int(math.ceil(2 * math.log2(n_mod))) + 1
    epsilon = pe_epsilon_for(delta, n)
    phases = _phases(phase_estimation_poly, epsilon, 0.2)
    u = _modmul_unitary(x, n_mod)
    rng = np.random.default_rng(seed)
    state0 = np.zeros(n_mod, dtype=complex)
    state0[1 % n_mod] = 1.0
    shots = []
    queries = 0
    trace = []
    params = {"x": x, "modulus": n_mod, "n": n, "delta": delta, "epsilon": epsilon}
    for attempt in range(retries):
        estimate, tr, q, _ = _run_phase_estimation(u, state0, n, phases, rng, exact=False)
        queries += q
        shots.append([t["bit"] for t in tr])
        trace.extend(tr)
        theta = estimate.value % 1.0
        candidates = []
        for den in _continued_fraction_denominators(theta, n_mod):
            for mult in range(1, 5):
                if den * mult <= n_mod:
                    candidates.append(den * mult)
        for cand in sorted(set(candidates)):
            if pow(x, cand, n_mod) == 1:
                order = _reduce_to_order(x, n_mod, cand)
                params["theta"] = theta
                params["attempts"] = attempt + 1
                return RunRecord("factor", params, seed, shots, order, queries, trace)
    raise OrderNotFound(f"no valid order after {retries} attempts")


# ---------------------------------------------------------------------------
# Hamiltonian simulation


def hamsim_truncation_index(alpha: float, t: float, epsilon: float) -> int:
    """Shared cos/sin truncation index k' for the evolution construction."""
    if t == 0.0:
        return 0
    return solve_truncation(alpha * abs(t), epsilon / 4.0).k_prime


def hamsim_query_count(alpha: float, t: float, epsilon: float) -> int:
    """Total encoding applications: 2k' for cosine plus 2k'+1 for sine."""
    return 4 * hamsim_truncation_index(alpha, t, epsilon) + 1


def hamiltonian_simulation(
    h: np.ndarray, alpha: float, t: float, epsilon: float
) -> BlockEncoding:
    """Block encoding of exp(-i H t) / 2 built from two QSVT passes.

    Even and odd passes approximate cos(Ht) and sin(Ht); one Hadamard average
    of V_cos(+-phi) and -+i V_sin(+-phi) over two ancillas gives (cos - i sin)
    / 2.  Qubitization acts per signed eigenvalue, so no spectral shift is
    needed and the total query count is 4k' + 1.  Post-selecting both
    ancillas on |0> applies the evolution (the factor 1/2 is the encoding's
    alpha).
    """
    h = _square(h, NotHermitian)
    _require_dim(8 * len(h), "8n")  # checked before any work: the output has dimension 8n
    if not 0.0 < epsilon < 1.0 / math.e:
        raise DomainError("epsilon must lie in (0, 1/e)")
    enc = qubitize_hermitian(h, alpha)
    cos_seq, sin_seq = _hamsim_phases(abs(alpha * t), epsilon)
    cos_pair, out_proj = _conjugate_pair(QsvtProgram(enc, cos_seq))
    sin_pair, _ = _conjugate_pair(QsvtProgram(enc, sin_seq))
    sign = -1j if t >= 0 else 1j  # cos(Ht) - i sin(Ht) = exp(-iHt) for t > 0
    return _average(cos_pair + [sign * v for v in sin_pair], enc.proj_right, out_proj, 2.0)


# ---------------------------------------------------------------------------
# Matrix inversion


def matrix_inversion(a: np.ndarray, kappa: float, epsilon: float) -> BlockEncoding:
    """Block encoding of A^{-1} / (2 kappa) via the inversion polynomial.

    QSVT runs on the encoding of A^dag, whose singular value transform by
    an odd polynomial approximating 1/(2 kappa x) lands on A^{-1}; the
    returned encoding has alpha = 2 kappa.
    """
    a = np.asarray(a, dtype=complex)
    _require_dim(4 * len(a), "4n")  # checked before any work: the output has dimension 4n
    sigma = np.linalg.svd(a, compute_uv=False)
    if np.any(sigma > 1.0 + 1e-9) or np.any(sigma < 1.0 / kappa - 1e-9):
        raise ConditionViolated(
            f"singular values {np.round(sigma, 6)} leave [1/kappa, 1]"
        )
    phases = _phases(matrix_inversion_poly, epsilon, kappa)
    enc = embed_general(a.conj().T, 1.0)
    pair, out_proj = _conjugate_pair(QsvtProgram(enc, phases))
    return _average(pair, enc.proj_right, out_proj, 2.0 * kappa)
