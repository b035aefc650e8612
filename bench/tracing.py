"""Spans around metok's public functions, installed from outside the program.

Each wrapper replaces a function at the module attribute its caller looks it
up through (``metok.pipeline.prefill``, ``metok.vision.avg_pool_2d``, ...), so
no file of the program changes. A span records its name, start, end, parent
and op id; spans stay in memory and are written out when the run ends. A
layer's self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter

from metok import cli, pipeline, toy_llm, vision
from metok.accounting import layer_flops

ROOT_SPAN = "bench.op"


def _read_attrs(tracer, args, result):
    return {"bytes": os.path.getsize(args[0])}


def _pool_attrs(tracer, args, result):
    frames = args[0]
    return {"offered": frames.num_frames * frames.tokens_per_frame, "out": len(result)}


def _prefill_attrs(tracer, args, result):
    model, sched = args[0], args[2]
    flops = sum(layer_flops(n, model.d_model, tracer.mlp_ratio) for n in result.layer_lengths)
    return {"compressed": bool(sched.boundary_layers()), "flops": flops}


def _kv_attrs(tracer, args, result):
    return {"entries": sum(result.entry_counts())}


def _decode_attrs(tracer, args, result):
    return {"forwards": result.num_forwards}


def _boundary_hook(tracer, args, result):
    layer, sched = args[0], args[2]
    tracer.boundary = (sched.l1, sched.l2, sched.l3).index(layer) + 1


def _select_attrs(tracer, args, result):
    return {"boundary": tracer.boundary, "entering": len(args[1]), "kept": len(result)}


# (module, attribute, span name or None for a hook that records no span, attrs)
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "read_embeddings", "data_io.read", _read_attrs),
    (cli, "run_simulation", "pipeline.run_simulation", None),
    (pipeline, "run_simulation", "pipeline.run_simulation", None),
    (vision, "segment_events", "vision.segment", None),
    (vision, "score_relevance", "vision.score", None),
    (vision, "select_keys", "vision.select", None),
    (vision, "adaptive_pool", "vision.pool", _pool_attrs),
    (vision, "uniform_stream", "vision.pool", None),
    (vision, "avg_pool_2d", "kernels.avg_pool", None),
    (pipeline, "init_model", "toy_llm.init", None),
    (pipeline, "prefill", "toy_llm.prefill", _prefill_attrs),
    (toy_llm, "retention_ratio", None, _boundary_hook),
    (toy_llm, "token_importance", "schedule.importance", None),
    (toy_llm, "select_at_boundary", "schedule.select", _select_attrs),
    (pipeline, "apply_kv_policy", "toy_llm.kv_policy", _kv_attrs),
    (pipeline, "decode", "toy_llm.decode", _decode_attrs),
    (pipeline, "analytic_trace", "accounting.price", None),
    (pipeline, "baseline_trace", "accounting.price", None),
    (pipeline, "reduction_report", "accounting.price", None),
)


class Tracer:
    """In-memory span recorder; install() before a traced op, uninstall() after."""

    def __init__(self, mlp_ratio: float):
        self.mlp_ratio = mlp_ratio
        self.spans: list[list] = []     # [name, start, end, parent, op, attrs]
        self.boundary = None            # 1, 2 or 3 while a boundary layer prunes
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, attrs):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
                attrs(self, args, result)
                return result
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if attrs is not None:
                self.spans[index][5] = attrs(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, attrs in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span the op records descends from it."""
        self._op = op_id
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._op = -1

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id, attrs."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with self.spans."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer, ops: int) -> tuple[dict, dict]:
    """Per-layer metrics (means per traced op) and self seconds per layer per op."""
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    sums: dict[str, float] = {}
    kept = {1: [0, 0], 2: [0, 0], 3: [0, 0]}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, _, attrs = span
        key = name
        if name == "toy_llm.prefill":
            key = "toy_llm.prefill." + ("compressed" if attrs["compressed"] else "baseline")
            add("prefill_flops", attrs["flops"])
        self_s[key] = self_s.get(key, 0.0) + own
        incl_s[key] = incl_s.get(key, 0.0) + (end - start)
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        add("calls." + name, 1)
        if attrs is None:
            continue
        if name == "data_io.read":
            add("read_bytes", attrs["bytes"])
        elif name == "vision.pool":
            add("pool_offered", attrs["offered"])
            add("pool_out", attrs["out"])
        elif name == "toy_llm.kv_policy":
            add("kv_entries", attrs["entries"])
        elif name == "toy_llm.decode":
            add("forwards", attrs["forwards"])
        elif name == "schedule.select":
            kept[attrs["boundary"]][0] += attrs["entering"]
            kept[attrs["boundary"]][1] += attrs["kept"]

    def per_op(key):
        return _div(self_s.get(key, 0.0), ops)

    prefill_wall = incl_s.get("toy_llm.prefill.baseline", 0.0) + incl_s.get(
        "toy_llm.prefill.compressed", 0.0)
    metrics = {
        "data_io.read_s": per_op("data_io.read"),
        "data_io.read_mb_per_s": _div(sums.get("read_bytes", 0.0) / 2**20,
                                      incl_s.get("data_io.read", 0.0)),
        "vision.segment_s": per_op("vision.segment"),
        "vision.score_s": per_op("vision.score"),
        "vision.select_s": per_op("vision.select"),
        "vision.pool_s": per_op("vision.pool"),
        "vision.tokens_out": _div(sums.get("pool_out", 0.0), ops),
        "vision.retained_frac": _div(sums.get("pool_out", 0.0), sums.get("pool_offered", 0.0)),
        "kernels.avg_pool_s": per_op("kernels.avg_pool"),
        "kernels.avg_pool_calls": _div(sums.get("calls.kernels.avg_pool", 0.0), ops),
        "schedule.importance_s": per_op("schedule.importance"),
        "schedule.select_s": per_op("schedule.select"),
        "toy_llm.init_s": per_op("toy_llm.init"),
        "toy_llm.prefill_s.baseline": per_op("toy_llm.prefill.baseline"),
        "toy_llm.prefill_s.compressed": per_op("toy_llm.prefill.compressed"),
        "toy_llm.prefill_gflops_per_s": _div(sums.get("prefill_flops", 0.0) / 1e9, prefill_wall),
        "toy_llm.kv_policy_s": per_op("toy_llm.kv_policy"),
        "toy_llm.kv_entries": _div(sums.get("kv_entries", 0.0), ops),
        "toy_llm.decode_s": per_op("toy_llm.decode"),
        "toy_llm.decode_step_ms": _div(1000.0 * self_s.get("toy_llm.decode", 0.0),
                                       sums.get("forwards", 0.0)),
        "accounting.price_s": per_op("accounting.price"),
        "pipeline.self_s": per_op("pipeline.run_simulation"),
        "cli.self_s": per_op("cli.main"),
        "bench.self_s": per_op(ROOT_SPAN),
    }
    for boundary, (entering, survived) in kept.items():
        metrics[f"schedule.kept_frac.l{boundary}"] = _div(survived, entering)
    return metrics, {layer: _div(total, ops) for layer, total in sorted(by_layer.items())}
