"""Command-line front end: phase synthesis, response curves, algorithm demos.

Output files are byte-deterministic for a fixed invocation and seed: JSON is
emitted with sorted keys, CSV uses 17 significant digits with LF endings,
and the SVG emitter depends only on its input curve.  Every input file is
read by ``_read``, and every JSON result but an encoding is written by
``_emit``: to its file, when the command names one, and then to stdout.
Encoding files are written by ``_write_encoding`` piece by piece as the
codec yields them, never held whole.  Flags that several commands share
are declared once, in parent parsers.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import families
from .algorithms import (
    hamiltonian_simulation,
    hamsim_query_count,
    matrix_inversion,
    order_finding_demo,
    phase_estimation_record,
    pe_epsilon_for,
    eigenvalue_threshold,
    qsvt_search,
)
from .block_encoding import (
    _encoding_chunks,
    encoding_from_json,
    matrix_from_json,
    matrix_to_json,
)
from .errors import DomainError, EmptyCurve, QsvtSimError
from .phase_solver import SolverOptions
from .poly_approx import poly_to_json
from .qsp_core import (
    phase_sequence_from_json,
    phase_sequence_to_json,
    response_curve,
)
from .qsvt_engine import QsvtProgram, transformed_block

OUTPUT_DIR_ENV = "QSVTSIM_OUTPUT_DIR"


def _out_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_text(path: str, pieces):
    """Writes an iterable of strings, one after another, to the output path."""
    with open(_out_path(path), "w", newline="\n") as fh:
        fh.writelines(pieces)


def _write_encoding(path: str, enc) -> None:
    """Writes ``encoding_to_json(enc)`` and a newline to the output path,
    piece by piece, so the file's text is never held whole."""
    _write_text(path, itertools.chain(_encoding_chunks(enc), ("\n",)))


# the most points a response or polynomial grid takes (--npts), and the
# curves a response SVG can draw (--channels)
NPTS_CAP = 10**6
CHANNELS = ("re", "im", "abs2")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def curve_csv(curve) -> str:
    lines = ["a,re,im,abs2"]
    for a, val in curve:
        lines.append(
            f"{_fmt(a)},{_fmt(val.real)},{_fmt(val.imag)},{_fmt(abs(val) ** 2)}"
        )
    return "\n".join(lines) + "\n"


def _require_channels(channels) -> tuple:
    """``channels`` as a tuple; DomainError naming each one that is not one
    of CHANNELS."""
    bad = [chan for chan in channels if chan not in CHANNELS]
    if bad:
        raise DomainError(f"unknown channel {', '.join(map(repr, bad))}; "
                          f"the channels are {', '.join(CHANNELS)}")
    return tuple(channels)


def emit_svg(curve, channels=("re",), width: int = 640, height: int = 400) -> str:
    """Standalone SVG with axes and one polyline per requested channel,
    each one of CHANNELS."""
    _require_channels(channels)
    if not curve:
        raise EmptyCurve("cannot render an empty curve")
    extract = {
        "re": lambda v: v.real,
        "im": lambda v: v.imag,
        "abs2": lambda v: min(abs(v) ** 2, 1.0 + 1e-9),
    }
    colors = {"re": "#1f6fb2", "im": "#b2471f", "abs2": "#2e8b57"}
    margin = 40.0
    xs = [a for a, _ in curve]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    y_lo, y_hi = -1.05, 1.05

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{sx(x_lo):.2f}" y1="{sy(0):.2f}" x2="{sx(x_hi):.2f}" y2="{sy(0):.2f}" '
        'stroke="#888" stroke-width="1"/>',
        f'<line x1="{sx(min(0.0, x_hi)):.2f}" y1="{sy(y_lo):.2f}" '
        f'x2="{sx(min(0.0, x_hi)):.2f}" y2="{sy(y_hi):.2f}" stroke="#888" stroke-width="1"/>',
    ]
    for chan in channels:
        pts = " ".join(
            f"{sx(a):.3f},{sy(extract[chan](v)):.3f}" for a, v in curve
        )
        parts.append(
            f'<polyline fill="none" stroke="{colors[chan]}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _parse_args_kv(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            out[key.strip()] = value.strip()
    return out


def _grid(npts: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, npts)


def _require_npts(npts: int) -> None:
    """Rejects a grid size outside 1 to NPTS_CAP, before any output."""
    if not 1 <= npts <= NPTS_CAP:
        raise DomainError(f"--npts must lie in 1 to {NPTS_CAP}, got {npts}")


def _read(path: str, parse):
    """``parse`` of the text of the input file at ``path``: the one reader."""
    with open(path) as fh:
        return parse(fh.read())


def _emit(text: str, path: str | None) -> None:
    """Writes ``text`` and a newline to the output path when one is given,
    then prints ``text``: the one emitter of every JSON result but an
    encoding's."""
    if path:
        _write_text(path, (text, "\n"))
    print(text)


def _cmd_phases(args) -> int:
    kv = _parse_args_kv(args.args)
    options = SolverOptions(residual_tol=args.residual_tol)
    seq = families.family_phases(args.family, kv, options)
    _emit(phase_sequence_to_json(seq), args.json)
    if args.emit_response:
        curve = response_curve(seq, _grid(args.npts))
        _write_text(args.emit_response, curve_csv(curve))
    return 0


def _cmd_poly(args) -> int:
    kv = _parse_args_kv(args.args)
    poly = families.family_target(args.family, kv)
    _emit(poly_to_json(poly), args.json)
    if args.csv:
        grid = _grid(args.npts)
        vals = poly(grid)
        lines = ["a,value"] + [f"{_fmt(a)},{_fmt(v)}" for a, v in zip(grid, vals)]
        _write_text(args.csv, ("\n".join(lines), "\n"))
    return 0


def _cmd_response(args) -> int:
    channels = _require_channels(args.channels.split(","))  # with or without --svg
    seq = _read(args.phases, phase_sequence_from_json)
    curve = response_curve(seq, _grid(args.npts))
    if args.csv:
        _write_text(args.csv, (curve_csv(curve),))
    if args.svg:
        _write_text(args.svg, (emit_svg(curve, channels),))
    if not args.csv and not args.svg:
        print(curve_csv(curve), end="")
    return 0


def _cmd_qsvt(args) -> int:
    encoding = _read(args.encoding, encoding_from_json)
    seq = _read(args.phases, phase_sequence_from_json)
    _emit(matrix_to_json(transformed_block(QsvtProgram(encoding, seq))), args.emit)
    return 0


def _require_seed(args):
    if getattr(args, "exact", False):
        return 0
    if args.seed is None:
        raise DomainError(f"{args.command}: --seed is mandatory in sampled mode")
    return args.seed


def _cmd_search(args) -> int:
    seed = _require_seed(args)
    record = qsvt_search(
        args.n_qubits, args.marked, args.delta, args.transition, seed, args.exact
    )
    _emit(record.to_json(), args.emit)
    return 0


def _cmd_threshold(args) -> int:
    seed = _require_seed(args)
    h = _read(args.matrix, matrix_from_json)
    psi = _read(args.psi, matrix_from_json).ravel()
    record = eigenvalue_threshold(
        h, args.alpha, args.lambda_th, args.delta_lambda,
        args.zeta, args.delta, psi, seed, args.exact,
    )
    _emit(record.to_json(), args.emit)
    return 0


def _cmd_qpe(args) -> int:
    if (args.matrix is None) != (args.eigvec is None):
        raise DomainError("qpe: --matrix needs --eigvec, its eigenvector, and --phi takes none")
    if args.phi is not None:
        u = np.array([[np.exp(2j * np.pi * args.phi)]])
        vec = np.array([1.0 + 0j])
    else:
        u = _read(args.matrix, matrix_from_json)
        vec = _read(args.eigvec, matrix_from_json).ravel()
    seed = _require_seed(args)
    epsilon = args.epsilon if args.epsilon is not None else pe_epsilon_for(args.delta, args.n)
    record = phase_estimation_record(
        u, vec, args.n, epsilon, args.transition, seed, args.exact
    )
    print(f"theta={record.decision.value:.10g}")
    _emit(record.to_json(), args.emit)
    return 0


def _cmd_factor(args) -> int:
    seed = _require_seed(args)
    record = order_finding_demo(args.x, args.modulus, args.delta, seed)
    print(f"order={record.decision}")
    _emit(record.to_json(), args.emit)
    return 0


def _cmd_hamsim(args) -> int:
    h = _read(args.matrix, matrix_from_json)
    enc = hamiltonian_simulation(h, args.alpha, args.t, args.epsilon)
    queries = hamsim_query_count(args.alpha, args.t, args.epsilon)
    print(json.dumps({"queries": queries, "alpha": enc.alpha, "dim": enc.dim}, sort_keys=True))
    if args.emit:
        _write_encoding(args.emit, enc)
    return 0


def _cmd_invert(args) -> int:
    a = _read(args.matrix, matrix_from_json)
    enc = matrix_inversion(a, args.kappa, args.epsilon)
    print(json.dumps({"alpha": enc.alpha, "dim": enc.dim}, sort_keys=True))
    if args.emit:
        _write_encoding(args.emit, enc)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qsvtsim",
        description="QSP phase synthesis and QSVT algorithm simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that several commands share, each declared once in a parent parser
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, help="one of, with its --args and their "
                        "defaults: " + families.family_usage())
    family.add_argument("--args", default="", help="comma-separated key=value family arguments")
    family.add_argument("--json", metavar="FILE")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--npts", type=int, default=400,
                      help=f"grid points on [-1, 1], 1 to {NPTS_CAP}")
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--emit", metavar="FILE")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    exact = argparse.ArgumentParser(add_help=False)
    exact.add_argument("--exact", action="store_true")

    def command(name, func, help, *parents, **kwargs):
        p = sub.add_parser(name, help=help, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    p = command("phases", _cmd_phases, "synthesize phases for a named family", family, grid)
    p.add_argument("--emit-response", metavar="CSV")
    p.add_argument("--residual-tol", type=float, default=1e-6)

    p = command("poly", _cmd_poly, "emit a family target polynomial", family, grid,
                description="Emit a family target polynomial; fpsearch has phases but no target.")
    p.add_argument("--csv", metavar="FILE")

    p = command("response", _cmd_response, "sample the response of stored phases", grid)
    p.add_argument("--phases", required=True)
    p.add_argument("--csv", metavar="FILE")
    p.add_argument("--svg", metavar="FILE")
    p.add_argument("--channels", default="re",
                   help="comma-separated SVG curves, of " + ", ".join(CHANNELS))

    p = command("qsvt", _cmd_qsvt, "apply stored phases to a stored encoding", emit)
    p.add_argument("--encoding", required=True)
    p.add_argument("--phases", required=True)

    p = command("search", _cmd_search, "unstructured search demo", seed, exact, emit)
    p.add_argument("--n-qubits", type=int, required=True)
    p.add_argument("--marked", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--transition", type=float, default=None)

    p = command("threshold", _cmd_threshold, "eigenvalue threshold decision demo",
                seed, exact, emit)
    p.add_argument("--matrix", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda-th", type=float, required=True)
    p.add_argument("--delta-lambda", type=float, required=True)
    p.add_argument("--zeta", type=float, default=2**-0.5)
    p.add_argument("--delta", type=float, default=0.1)

    p = command("qpe", _cmd_qpe, "phase estimation demo", seed, exact, emit)
    oracle = p.add_mutually_exclusive_group(required=True)
    oracle.add_argument("--phi", type=float, default=None, help="eigenphase of a 1x1 oracle")
    oracle.add_argument("--matrix", help="unitary JSON, with its eigenvector in --eigvec")
    p.add_argument("--eigvec", help="eigenvector JSON for --matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--transition", type=float, default=0.2)

    p = command("factor", _cmd_factor, "order finding demo", seed, emit)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)

    p = command("hamsim", _cmd_hamsim, "Hamiltonian evolution encoding", emit)
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = command("invert", _cmd_invert, "matrix inversion encoding", emit)
    p.add_argument("--matrix", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "npts" in args:  # one check for every command that takes a grid
            _require_npts(args.npts)
        return args.func(args)
    except (QsvtSimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
