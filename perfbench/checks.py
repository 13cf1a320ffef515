"""Independent references for the benchmark's output checks.

Nothing in this module imports qsvtsim.  Every reference is computed with
numpy/scipy from the benchmark's own inputs or from the files and text the
program wrote, so a check cannot pass because the program agrees with
itself.  Each check raises CheckFailed with the size of the disagreement.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.linalg import expm
from scipy.special import erf

# Constructors certify on a 4096-point grid; between its points an error
# that sits at the budget on the grid can rise a little, most steeply at the
# edge of a transition window.  The target-against-function checks therefore
# skip one extra grid spacing next to each window and allow 2 % over budget.
CERT_SPACING = 2.0 / 4095
FUNCTION_SLACK = 1.02
CANONICAL = {"basis": "++", "processing": "sz", "signal": "wx"}
# Floating-point noise of a dense transform at dimension <= 1024.
NUMERIC_TOL = 1e-10


class CheckFailed(Exception):
    """An output disagreed with its independent reference."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# QSP response in the (Wx, Sz, <+|.|+>) convention, by explicit 2x2 products


def qsp_response(phases, x) -> np.ndarray:
    """Re<+| S(phi_0) W(x) S(phi_1) ... W(x) S(phi_d) |+> at each x.

    S(phi) = diag(e^{i phi}, e^{-i phi}) and W(x) = [[x, i s], [i s, x]]
    with s = sqrt(1 - x^2).  The four entries of the running product are
    carried as separate arrays.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    e = np.exp(1j * np.asarray(phases, dtype=float))
    a = np.full(x.shape, e[0], dtype=complex)
    b = np.zeros(x.shape, dtype=complex)
    c = np.zeros(x.shape, dtype=complex)
    d = np.full(x.shape, np.conj(e[0]), dtype=complex)
    for ek in e[1:]:
        a, b, c, d = (
            a * x + b * 1j * s,
            a * 1j * s + b * x,
            c * x + d * 1j * s,
            c * 1j * s + d * x,
        )
        a, c = a * ek, c * ek
        b, d = b * np.conj(ek), d * np.conj(ek)
    return 0.5 * np.real(a + b + c + d)


def check_grid(rng: np.random.Generator, extra=()) -> np.ndarray:
    """Dense fixed grid, seeded random points and any extra points, sorted."""
    fixed = np.linspace(-1.0, 1.0, 20001)
    return np.sort(np.concatenate([fixed, rng.uniform(-1.0, 1.0, 4000), np.ravel(extra)]))


def response_error(phases, coeffs, grid) -> float:
    """Max |response - target| with the target evaluated by chebval."""
    return float(np.max(np.abs(qsp_response(phases, grid) - cheb.chebval(grid, coeffs))))


def check_response(phases, coeffs, grid, bound: float) -> float:
    err = response_error(phases, coeffs, grid)
    require(err <= bound, f"response error {err:.3e} above {bound:.1e}")
    return err


# ---------------------------------------------------------------------------
# Targets against the functions they approximate


def _outside(x, edge_lo, edge_hi):
    pad = 2.0 * CERT_SPACING
    return (x <= edge_lo - pad) | (x >= edge_hi + pad)


def function_error(kind: str, params: tuple, coeffs, grid) -> tuple:
    """(max error, budget) of a target polynomial against its function.

    kind: 'sign' (eps, delta), 'step' (eps, delta, cut), 'cos'/'sin'
    (t, eps, scale) and 'inv' (eps, kappa).
    """
    vals = cheb.chebval(grid, coeffs)
    if kind == "sign":
        eps, delta = params
        keep = _outside(grid, -delta / 2, delta / 2)
        return float(np.max(np.abs(vals[keep] - np.sign(grid[keep])))), eps
    if kind == "step":
        eps, delta, cut = params
        ax = np.abs(grid)
        keep = _outside(ax, cut - delta / 2, cut + delta / 2)
        return float(np.max(np.abs(vals[keep] - np.sign(cut - ax[keep])))), eps
    if kind in ("cos", "sin"):
        # Jacobi-Anger truncation at eps, rescaled by 1/(1+eps): within 2 eps
        t, eps, scale = params
        ref = np.cos(t * grid) if kind == "cos" else np.sin(t * grid)
        return float(np.max(np.abs(vals - scale * ref))), 2.0 * eps * scale
    if kind == "inv":
        eps, kappa = params
        keep = _outside(grid, -1.0 / kappa, 1.0 / kappa)
        ref = 1.0 / (2.0 * kappa * grid[keep])
        return float(np.max(np.abs(vals[keep] - ref))), eps / (2.0 * kappa)
    raise ValueError(f"unknown target kind {kind!r}")


def check_function(kind: str, params: tuple, coeffs, grid) -> float:
    """The target within its budget of its function.

    The unit bound is left to the response check: a response never exceeds
    1, so a target that overshoots 1 by more than the solve tolerance fails
    there.
    """
    err, budget = function_error(kind, params, coeffs, grid)
    require(err <= FUNCTION_SLACK * budget, f"{kind} target off by {err:.3e} > {budget:.3e}")
    return err


# ---------------------------------------------------------------------------
# Singular value transforms


def svt_reference(a: np.ndarray, values_at, odd: bool) -> np.ndarray:
    """W f(S) V^dag (odd) or V f(S) V^dag (even) from numpy.linalg.svd."""
    w, sigma, vh = np.linalg.svd(a)
    f = values_at(sigma)
    if odd:
        return (w * f) @ vh
    return (vh.conj().T * f) @ vh


def check_transform(block: np.ndarray, a: np.ndarray, phases, coeffs, grid) -> tuple:
    """Spectral norm of (block - W f(S) V^dag) against the phases' residual.

    f is the target polynomial; the residual is the largest response error
    over the grid and the singular values themselves, so the bound is exact
    up to rounding.
    """
    sigma = np.linalg.svd(a, compute_uv=False)
    resid = response_error(phases, coeffs, np.concatenate([grid, sigma]))
    ref = svt_reference(a, lambda s: cheb.chebval(s, coeffs), odd=len(phases) % 2 == 0)
    require(block.shape == ref.shape, f"block shape {block.shape} != {ref.shape}")
    gap = float(np.linalg.norm(block - ref, 2))
    require(gap <= resid + NUMERIC_TOL, f"transform off by {gap:.3e} > residual {resid:.3e}")
    return gap, resid


# ---------------------------------------------------------------------------
# Files the CLI writes


def matrix_from_payload(payload: dict) -> np.ndarray:
    rows, cols = int(payload["rows"]), int(payload["cols"])
    re = np.asarray(payload["re"], dtype=float).reshape(rows, cols)
    im = np.asarray(payload["im"], dtype=float).reshape(rows, cols)
    return re + 1j * im


def matrix_payload(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": [float(v) for v in m.real.ravel()],
        "im": [float(v) for v in m.imag.ravel()],
    }


def coordinate_indices(p: np.ndarray) -> np.ndarray:
    """Indices selected by a diagonal 0/1 projector."""
    diag = np.diag(p)
    require(np.array_equal(p, np.diag(diag)), "projector is not diagonal")
    require(np.all((diag == 0) | (diag == 1)), "projector diagonal is not 0/1")
    return np.nonzero(diag.real > 0.5)[0]


def encoding_block(text: str) -> tuple:
    """(block, alpha) of an encoding file with coordinate projectors."""
    payload = json.loads(text)
    u = matrix_from_payload(payload["unitary"])
    rows = coordinate_indices(matrix_from_payload(payload["proj_left"]))
    cols = coordinate_indices(matrix_from_payload(payload["proj_right"]))
    return u[np.ix_(rows, cols)], float(payload["alpha"])


def check_hamsim(text: str, h: np.ndarray, t: float, eps: float) -> float:
    """2 * block of the emitted encoding against expm(-iHt), within eps."""
    block, alpha = encoding_block(text)
    require(alpha == 2.0, f"hamsim alpha {alpha} != 2")
    gap = float(np.linalg.norm(alpha * block - expm(-1j * t * h), 2))
    require(gap <= eps, f"evolution off by {gap:.3e} > {eps:.1e}")
    return gap


def check_invert(text: str, a: np.ndarray, kappa: float, eps: float, solve_tol: float) -> float:
    """2 kappa * block against numpy.linalg.inv(A).

    The polynomial is within eps/(2 kappa) of 1/(2 kappa x) and the phases
    within solve_tol of the polynomial, so the bound is eps + 2 kappa tol.
    """
    block, alpha = encoding_block(text)
    require(alpha == 2.0 * kappa, f"invert alpha {alpha} != 2 kappa")
    gap = float(np.linalg.norm(alpha * block - np.linalg.inv(a), 2))
    bound = eps + 2.0 * kappa * solve_tol
    require(gap <= bound, f"inverse off by {gap:.3e} > {bound:.3e}")
    return gap


def check_qsvt_file(block_text: str, encoding_text: str, phases) -> float:
    """An emitted transformed block against W f(S) V^dag of the encoding's
    own block, with f the real response of the phases (exact, not a target)."""
    block = matrix_from_payload(json.loads(block_text))
    enc_block, _ = encoding_block(encoding_text)
    ref = svt_reference(enc_block, lambda s: qsp_response(phases, s), odd=len(phases) % 2 == 0)
    require(block.shape == ref.shape, f"block shape {block.shape} != {ref.shape}")
    gap = float(np.linalg.norm(block - ref, 2))
    require(gap <= 1e-9, f"qsvt block off by {gap:.3e}")
    return gap


def erf_family_coeffs(d: int, k: float) -> np.ndarray:
    """Odd degree-d Chebyshev interpolant of erf(kx), scaled into [-1, 1]."""
    coeffs = cheb.chebinterpolate(lambda x: erf(k * x), d)
    coeffs[0::2] = 0.0
    sup = float(np.max(np.abs(cheb.chebval(np.linspace(-1.0, 1.0, 4096), coeffs))))
    if sup > 1.0:
        coeffs = coeffs / (sup * (1.0 + 1e-12))
    return coeffs


def check_phase_file(text: str, d: int, k: float, grid, bound: float) -> list:
    """Phases of the poly_sign family against an own erf interpolant."""
    payload = json.loads(text)
    require(payload["convention"] == CANONICAL, f"unexpected convention {payload['convention']}")
    phases = [float(p) for p in payload["phases"]]
    require(len(phases) == d + 1, f"{len(phases)} phases for degree {d}")
    check_response(phases, erf_family_coeffs(d, k), grid, bound)
    return phases


def check_curve_csv(text: str, phases, npts: int) -> None:
    lines = text.split("\n")
    require(lines[0] == "a,re,im,abs2" and lines[-1] == "", "bad CSV framing")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    require(rows.shape == (npts, 4), f"CSV shape {rows.shape}")
    require(np.array_equal(rows[:, 0], np.linspace(-1.0, 1.0, npts)), "CSV grid differs")
    err = float(np.max(np.abs(rows[:, 1] - qsp_response(phases, rows[:, 0]))))
    require(err <= 1e-12, f"CSV response off by {err:.3e}")
    abs2 = rows[:, 1] ** 2 + rows[:, 2] ** 2
    require(np.allclose(rows[:, 3], abs2, rtol=1e-12, atol=1e-15), "CSV abs2 column inconsistent")


def check_svg(text: str, npts: int) -> None:
    root = ET.fromstring(text)
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    require(len(lines) == 1, f"{len(lines)} polylines")
    require(len(lines[0].get("points").split()) == npts, "polyline point count")


# ---------------------------------------------------------------------------
# Algorithm outcomes


def multiplicative_order(x: int, n: int) -> int:
    r, y = 1, x % n
    while y != 1:
        y = (y * x) % n
        r += 1
    return r


def nearest_rounding(phi: float, n: int) -> float:
    """Nearest n-bit value of phi, reduced mod 1."""
    return (round(phi * 2**n) / 2**n) % 1.0


def check_qpe(theta: float, phi: float, n: int) -> None:
    want = nearest_rounding(phi, n)
    got = theta % 1.0
    require(abs(got - want) < 1e-12, f"qpe theta {got} != nearest {n}-bit {want}")


def threshold_truth(h: np.ndarray, psi: np.ndarray, lambda_th: float, delta_lambda: float,
                    zeta: float):
    """True/False when the promise gap holds for (H, psi), else None.

    Yes: psi has weight >= zeta^2 on eigenvalues <= lambda_th - delta_lambda.
    No: psi has no weight below lambda_th + delta_lambda.
    """
    evals, evecs = np.linalg.eigh(h)
    weights = np.abs(evecs.conj().T @ (psi / np.linalg.norm(psi))) ** 2
    low = float(np.sum(weights[evals <= lambda_th - delta_lambda]))
    band = float(np.sum(weights[np.abs(evals - lambda_th) < delta_lambda]))
    if band > 1e-12:
        return None
    if low >= zeta**2:
        return True
    if low <= 1e-12:
        return False
    return None


def check_replay(first: dict, second: dict) -> None:
    """Byte-identical stdout and files from two runs of one argv."""
    require(first["stdout"] == second["stdout"], "replay stdout differs")
    require(first["files"] == second["files"], "replay files differ")


def hermitian(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    """(G + G^dag)/2 scaled to spectral norm `norm`, G complex Gaussian."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (g + g.conj().T)
    return h * (norm / np.linalg.norm(h, 2))


def with_singular_values(rng: np.random.Generator, n: int, sigma) -> np.ndarray:
    """Random complex matrix with the given singular values."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, _, vh = np.linalg.svd(g)
    return (w * np.asarray(sigma, dtype=float)) @ vh
