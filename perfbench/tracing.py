"""Per-layer tracing of qsvtsim from outside the program.

Every public function of each layer module is wrapped once and the wrapper
is bound at every place a qsvtsim module namespace holds the function:
modules import each other with `from .x import y`, so patching only the
defining module would miss, for example, the solves `algorithms` makes.
`BlockEncoding.__post_init__` is wrapped too, which counts constructions
(each a full O(N^3) validation).

Spans (name, start, end, parent, phase, op) stay in memory and are written
out when the round ends.  A span's self time is its duration minus the
durations of its child spans; the program is single-threaded, so children
never overlap and that difference is the time no child covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

import numpy as np

import checks

LAYERS = (
    "qsp_core",
    "poly_approx",
    "phase_solver",
    "block_encoding",
    "qsvt_engine",
    "algorithms",
    "families",
    "cli",
)

# Self-time metrics that partition the traced time of the ops.
BLOCK_BUCKETS = {
    "BlockEncoding": "block_encoding.validate_s",
    "require_unitary": "block_encoding.validate_s",
    "require_projector": "block_encoding.validate_s",
    "require_hermitian": "block_encoding.validate_s",
    "projector_phase": "block_encoding.projector_phase_s",
    "extract_block": "block_encoding.extract_s",
    "matrix_to_json": "block_encoding.json_s",
    "matrix_from_json": "block_encoding.json_s",
    "encoding_to_json": "block_encoding.json_s",
    "encoding_from_json": "block_encoding.json_s",
}
LAYER_BUCKETS = {
    "qsp_core": "qsp_core.response_s",
    "poly_approx": "poly_approx.build_s",
    "phase_solver": "phase_solver.solve_s",
    "block_encoding": "block_encoding.construct_s",
    "qsvt_engine": "qsvt_engine.transform_s",
    "algorithms": "algorithms.run_s",
    "families": "families.phases_s",
    "cli": "cli.main_s",
}
SELF_TIME_METRICS = tuple(sorted(set(LAYER_BUCKETS.values()) | set(BLOCK_BUCKETS.values())))

SYNTH_TARGET_LABELS = (
    "sign_d19", "jacos_d26", "jasin_d27", "pe_d30", "sign_d41",
    "thresh_d48", "interior_d48", "sign_d77", "inv_d103", "sign_d153",
)
TRANSFORM_SIZES = (64, 128, 256)

# Every per-layer metric the traced run prints, with its unit.  A metric
# whose layer a workload never reaches reads 0 on that workload.
PER_LAYER = (
    [("qsp_core.response_s", "s"), ("qsp_core.points", "count"),
     ("poly_approx.build_s", "s"), ("poly_approx.degree_sum", "count"),
     ("phase_solver.solve_s", "s"), ("phase_solver.setup_solve_s", "s")]
    + [(f"phase_solver.solve_s.{label}", "s") for label in SYNTH_TARGET_LABELS]
    + [("phase_solver.solves", "count"), ("phase_solver.resid_max", "1"),
       ("block_encoding.construct_s", "s"), ("block_encoding.validations", "count"),
       ("block_encoding.validate_s", "s"), ("block_encoding.projector_phase_calls", "count"),
       ("block_encoding.projector_phase_s", "s"), ("block_encoding.extract_s", "s"),
       ("block_encoding.json_s", "s"), ("qsvt_engine.transform_s", "s")]
    + [(f"qsvt_engine.transform_s.n{n}", "s") for n in TRANSFORM_SIZES]
    + [("qsvt_engine.oracle_ratio.n256", "ratio"), ("qsvt_engine.max_dim", "count"),
       ("algorithms.run_s", "s"), ("algorithms.queries", "count"),
       ("families.phases_s", "s"), ("cli.main_s", "s"), ("cli.bytes_out", "B")]
)


def _info(name: str, args, result):
    """What a span records about its call beyond its times (references only)."""
    layer, func = name.split(".", 1)
    if name == "qsp_core.response_many":
        return np.size(args[1])
    if name == "qsp_core.evaluate_sequence":
        return 1
    if layer == "poly_approx":
        poly = getattr(result, "poly", result)
        return getattr(poly, "degree", None)
    if name == "phase_solver.solve_phases":
        return (args[0].coeffs, result.phases)
    if name == "block_encoding.BlockEncoding":
        return args[0].unitary.shape[0]
    if name == "algorithms.hamsim_query_count":
        return result
    if layer == "algorithms":
        return getattr(result, "queries", None)
    return None


class Tracer:
    """Records spans while `phase` is set; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, phase, op, info]
        self.phase = None
        self.op = None
        self._stack = []

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.phase, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            span[6] = _info(name, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the layers' public functions at every binding in the package."""
        package = importlib.import_module("qsvtsim")
        modules = {layer: importlib.import_module(f"qsvtsim.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
        namespaces = [package] + [
            m for name, m in sys.modules.items() if name.startswith("qsvtsim.") and m
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        cls = modules["block_encoding"].BlockEncoding
        cls.__post_init__ = self._wrap(cls.__post_init__, "block_encoding.BlockEncoding")

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def dump(self, path: str):
        own = self.self_times()
        rows = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "phase": s[4],
             "op": s[5], "self": own[i]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)

    def metrics(self, op_meta: dict, extras: dict) -> dict:
        """Per-layer metrics over the timed ops (set-up only where named so).

        op_meta maps op labels to their meta dicts; extras carries the values
        measured outside the spans (svd_oracle time, CLI bytes out).
        """
        m = {name: 0.0 for name, _ in PER_LAYER}
        own = self.self_times()
        resid_grid = np.linspace(-1.0, 1.0, 1001)
        for i, (name, start, end, parent, phase, op, info) in enumerate(self.spans):
            layer, func = name.split(".", 1)
            if phase == "setup":
                if layer == "phase_solver":
                    m["phase_solver.setup_solve_s"] += own[i]
                continue
            bucket = BLOCK_BUCKETS.get(func) if layer == "block_encoding" else None
            m[bucket or LAYER_BUCKETS[layer]] += own[i]
            meta = op_meta.get(op, {})
            if layer == "qsp_core" and info is not None:
                m["qsp_core.points"] += info
            elif layer == "poly_approx" and info is not None:
                if parent < 0 or not self.spans[parent][0].startswith("poly_approx."):
                    m["poly_approx.degree_sum"] += info
            elif layer == "phase_solver":
                target = meta.get("target")
                if target:
                    m[f"phase_solver.solve_s.{target}"] += own[i]
                if func == "solve_phases":
                    m["phase_solver.solves"] += 1
                if func == "solve_phases" and info is not None:  # None when it raised
                    coeffs, phases = info
                    resid = checks.response_error(phases, coeffs, resid_grid)
                    m["phase_solver.resid_max"] = max(m["phase_solver.resid_max"], resid)
            elif func == "BlockEncoding":
                m["block_encoding.validations"] += 1
                if info is not None:  # None when the validation raised
                    m["qsvt_engine.max_dim"] = max(m["qsvt_engine.max_dim"], info)
            elif func == "projector_phase":
                m["block_encoding.projector_phase_calls"] += 1
            elif layer == "qsvt_engine":
                if "n" in meta:
                    m[f"qsvt_engine.transform_s.n{meta['n']}"] += own[i]
                if func == "transformed_block" and op == "n256_d41":
                    m["qsvt_engine.oracle_ratio.n256"] = (end - start) / extras["svd_oracle_s.n256"]
            elif layer == "algorithms" and info is not None:
                if parent < 0 or not self.spans[parent][0].startswith("algorithms."):
                    m["algorithms.queries"] += info
        m["cli.bytes_out"] = extras.get("bytes_out", 0)
        return m
