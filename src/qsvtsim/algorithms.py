"""End-to-end algorithm simulations built on the QSVT engine.

Each run is seeded and replayable; exact mode replaces measurement sampling
with decisions taken from exactly computed outcome probabilities, which
the deterministic correctness tests exercise.  Search, Hamiltonian
simulation and inversion build their circuits from the engine's dense
products (one ``_eigenframe`` per call), the threshold and phase estimation
read the QSP response in their block's own eigenframe, and none uses the
verification oracles.
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
    _eigenframe,
    _require_dim,
    _require_finite,
    _scaled_eigh,
    _square,
    embed_general,
    grover_signal,
    qubitize_hermitian,
    require_unitary,
)
from .errors import (
    ConditionViolated,
    DomainError,
    GiveUp,
    NotHermitian,
    NotUnitary,
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
from .qsp_core import PhaseSequence, response_many
from .qsvt_engine import QsvtProgram, _full, real_part_encoding

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
    """Canonical phases of the target ``constructor(*args)``, solved once per key."""
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


def _unit_state(psi, name: str, dim: int) -> np.ndarray:
    """psi scaled to unit norm; DomainError naming it unless it is a vector of
    length dim whose norm is finite and nonzero (a NaN or inf entry gives a
    NaN or inf norm)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise DomainError(
            f"input state {name} has shape {psi.shape}; the operator needs a vector of length {dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(psi)
    if not 0.0 < norm < np.inf:
        raise DomainError(f"input state {name} has norm {norm}; it must be finite and nonzero")
    return psi / norm


def _hadamard_test(f: np.ndarray, y: np.ndarray):
    """(p1, b1, b0) of the Hadamard test of a transform diag(f) on the unit
    state y in its eigenframe: p1 = 1/2 |(1 + f) y|^2 / (1 + |f y|^2)."""
    b1, b0 = 0.5 * (y + f * y), 0.5 * (y - f * y)
    w1, w0 = float(np.linalg.norm(b1) ** 2), float(np.linalg.norm(b0) ** 2)
    return w1 / (w0 + w1), b1, b0


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

    The spectrum is made positive by the shift circuit's block
    (I + H/alpha)/2, a symmetric step polynomial is applied at the shifted
    cut, and repeated one-qubit measurements distinguish the two Bernoulli
    means.  Decision True means "a low eigenvalue exists".  The block is
    read from one eigendecomposition of H: no encoding is built.
    """
    h = _square(h, NotHermitian)
    _require_dim(4 * len(h), "4n")  # checked before any work: the shift circuit is 4n
    evecs, lam = _scaled_eigh(h, alpha)
    psi = _unit_state(psi, "psi", len(h))
    if epsilon is None:
        epsilon = zeta / 4.0
    cut = 0.5 * (lambda_th / alpha + 1.0)
    width = delta_lambda / alpha
    phases = _phases(eigenvalue_threshold_poly, epsilon, width, cut)
    # the shifted block (I + H / alpha) / 2 = Q diag((1 + lam) / 2) Q^dag
    f = response_many(phases, 0.5 * (1.0 + lam)).real
    p0 = _hadamard_test(f, evecs.conj().T @ psi)[0]

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


# resolution of the ones-place carry probe as a fraction of a full turn at
# the amplified (j = n-1) scale; phases within this distance of an integer
# may present as 0.00...0 instead of 1.00...0 (the two differ only by the
# mod-1 bookkeeping of the estimate)
CARRY_RESOLUTION = Fraction(1, 256)
# the most bits a run takes: past 53, 2^j phi mod 1 keeps no bit of a double
# eigenphase phi in [1/2, 1) (and 2.0**j overflows past j = 1023)
PE_BIT_CAP = np.finfo(float).nmant + 1


def _voted_measure(y, phi, j: int, theta: Fraction, phases, rng, exact, votes):
    """Majority of repeated measurements of the step transform (canonical
    ``phases``) of the normal block (I + exp(-2 pi i theta) U^(2^j)) / 2: in
    U's eigenframe, on y, it is f = Re P at |cos(pi (2^j phi - theta))|.
    Sensible for eigenvector inputs, where each repetition is independent of
    the collapse history.  Returns (bit, ones, the last p1, collapsed y)."""
    turns = np.ldexp(phi, j) % 1.0  # 2^j phi mod 1: U^(2^j) cannot drift
    f = response_many(phases, np.abs(np.cos(np.pi * (turns - float(theta))))).real
    ones = 0
    for _ in range(votes):
        p1, b1, b0 = _hadamard_test(f, y)
        bit = int(p1 >= 0.5) if exact else int(rng.random() < p1)
        branch = b1 if bit else b0
        y = branch / np.linalg.norm(branch)
        ones += bit
    return int(2 * ones > votes), ones, p1, y


def _run_phase_estimation(
    phi: np.ndarray,
    y0: np.ndarray,
    n: int,
    phases: PhaseSequence,
    rng,
    exact: bool,
    phase_errors=None,
    majority_votes: int = 1,
    escalate_ambiguous: bool = False,
    _escalations: int = 0,
):
    """Bit-by-bit loop of the step polynomial's ``phases`` on the state's
    coordinates y0 in U's ``_eigenframe``; returns (estimate, trace, queries).

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
    at most three times and within PE_BIT_CAP bits, then rounds the deeper
    estimate back to n bits.
    """
    degree = phases.degree
    theta = Fraction(0)
    bits_rev = []  # theta_1..theta_n as collected, most significant last
    trace = []
    queries = 0
    y = y0
    for step, j in enumerate(range(n - 1, -1, -1)):
        theta = theta / 2
        err = 0.0 if phase_errors is None else float(phase_errors[step])
        theta_eff = theta - Fraction(err).limit_denominator(1 << 40) if err else theta
        bit, ones, p1, y = _voted_measure(y, phi, j, theta_eff, phases, rng, exact,
                                          majority_votes)
        queries += degree * majority_votes
        trace.append({"j": j, "theta": float(theta), "p1": p1, "bit": bit,
                      "votes": ones})
        if (
            escalate_ambiguous
            and step == 0
            and majority_votes >= 3
            and _escalations < 3
            and n < PE_BIT_CAP
            and abs(ones / majority_votes - 0.5) <= 0.25
        ):
            # ambiguous leading bit: the transform sits near its transition;
            # restart one iteration deeper and round back to n bits, mod 2
            est, deep_trace, deep_q = _run_phase_estimation(
                phi, y0, n + 1, phases, rng, exact, None,
                majority_votes, escalate_ambiguous, _escalations + 1,
            )
            k = round(est.value * 2**n) % 2 ** (n + 1)
            trace.append({"escalated_to": n + 1})
            trace.extend(deep_trace)
            bits = tuple((k >> (n - i)) & 1 for i in range(n + 1))
            return PhaseEstimate(bits, n), trace, queries + deep_q
        theta = Fraction(bit, 2) + theta
        bits_rev.append(bit)

    ones_bit = 0
    if not any(bits_rev):
        probe = Fraction(1, 4) - CARRY_RESOLUTION  # theta is exactly 0 here
        ones_bit, _, p1, _ = _voted_measure(y, phi, n - 1, probe, phases, rng, exact,
                                            majority_votes)
        queries += degree * majority_votes
        trace.append({"j": n - 1, "theta": float(probe), "p1": p1, "bit": ones_bit,
                      "ones_place": True})
    theta_bits = (ones_bit,) + tuple(reversed(bits_rev))
    return PhaseEstimate(theta_bits, n), trace, queries


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
    u = _square(u, NotUnitary)
    _require_dim(2 * len(u), "2n")  # checked before any work: each controlled block is 2n
    u = require_unitary(u)
    state = _unit_state(eigvec, "eigvec", len(u))
    if not 1 <= n <= PE_BIT_CAP:  # checked before any solve or decomposition
        raise DomainError(f"{n} bits: phase estimation takes 1 to the bit cap {PE_BIT_CAP}")
    if majority_votes < 1 or majority_votes % 2 == 0:
        raise DomainError("majority_votes must be a positive odd count")
    if majority_votes == 1 and epsilon > math.sqrt(2.0 / (n + 1)) + 1e-12:
        raise DomainError("epsilon too large for the per-iteration union bound")
    phases = _phases(phase_estimation_poly, epsilon, big_delta)
    q, phi = _eigenframe(u)
    rng = np.random.default_rng(seed)
    estimate, trace, queries = _run_phase_estimation(
        phi, q.conj().T @ state, n, phases, rng, exact, phase_errors, majority_votes,
        escalate_ambiguous,
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
    q, phi = _eigenframe(_modmul_unitary(x, n_mod))  # one frame for every attempt
    y0 = q[1 % n_mod].conj()  # the coordinates Q^dag |1> of the start state
    rng = np.random.default_rng(seed)
    shots = []
    queries = 0
    trace = []
    params = {"x": x, "modulus": n_mod, "n": n, "delta": delta, "epsilon": epsilon}
    for attempt in range(retries):
        estimate, tr, q_run = _run_phase_estimation(phi, y0, n, phases, rng, exact=False)
        queries += q_run
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
    cos, sin = (seq.as_array() for seq in _hamsim_phases(abs(alpha * t), epsilon))
    branches = _full(enc, [cos, -cos, sin, -sin])
    sign = -1j if t >= 0 else 1j  # cos(Ht) - i sin(Ht) = exp(-iHt) for t > 0
    branches[2:] = [sign * v for v in branches[2:]]
    return _average(branches, *enc._projectors, 2.0)  # here P_L is P_R


# ---------------------------------------------------------------------------
# Matrix inversion


def matrix_inversion(a: np.ndarray, kappa: float, epsilon: float) -> BlockEncoding:
    """Block encoding of A^{-1} / (2 kappa) via the inversion polynomial.

    QSVT runs on the encoding of A^dag, whose singular value transform by
    an odd polynomial approximating 1/(2 kappa x) lands on A^{-1}; the
    returned encoding has alpha = 2 kappa.
    """
    a = _square(a, DomainError)
    _require_dim(4 * len(a), "4n")  # checked before any work: the output has dimension 4n
    _require_finite(a)
    sigma = np.linalg.svd(a, compute_uv=False)
    if np.any(sigma > 1.0 + 1e-9) or np.any(sigma < 1.0 / kappa - 1e-9):
        raise ConditionViolated(
            f"singular values {np.round(sigma, 6)} leave [1/kappa, 1]"
        )
    phases = _phases(matrix_inversion_poly, epsilon, kappa).as_array()
    enc = embed_general(a.conj().T, 1.0)
    # the real part 1/2 (V(phi) + V(-phi)) of the odd transform, read out by P_L
    return _average(_full(enc, [phases, -phases]), *enc._projectors, 2.0 * kappa)
