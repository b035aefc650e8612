"""Analytic FLOPs and KV-memory models plus reduction reports.

The cost model is a documented contract, not a profiler:

    layer_flops(n) = (8 + 4*mlp_ratio) * n * d^2  +  4 * n^2 * d

with d = d_model: QKV and output projections cost 8*n*d^2, attention scores
and values 4*n^2*d, and the MLP 4*mlp_ratio*n*d^2. Decode charges each new
token the same projection cost plus attention against the cached context:

    step_flops(c) = (8 + 4*mlp_ratio) * d^2  +  4 * c * d

where c counts that layer's cached prompt survivors, previously generated
tokens, and the token itself. KV memory is 2 (K and V) * positions * d_model *
BYTES_PER_ELEMENT, summed over layers, counting the per-layer prompt cache
left after the decode-stage drop. A reduction report holds these two metrics
only, so it is byte-reproducible; wall-clock stays out of it. Decode terms join the
prefill total one at a time in step-then-layer order (a sequential np.cumsum, not the
pairwise np.sum), so the vectorised sum keeps the bits of the plain nested loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import STAGES, RunConfig, config_with
from .schedule import PruneSchedule, kv_drop_layer

__all__ = [
    "InferenceTrace",
    "ReductionReport",
    "analytic_trace",
    "baseline_trace",
    "kv_bytes",
    "layer_flops",
    "pipeline_flops",
    "reduction_report",
]

BYTES_PER_ELEMENT = 2  # half precision, the common serving default


@dataclass
class InferenceTrace:
    """Per-layer shape of one run: enough to price it without re-running it."""

    layer_lengths: list[int]       # sequence length entering each layer at prefill
    cached_positions: list[int]    # per-layer prompt cache after the decode-stage drop
    decode_steps: int              # decode forward passes (appended tokens)
    d_model: int
    mlp_ratio: float


def layer_flops(n: int, d_model: int, mlp_ratio: float) -> float:
    """Cost of one transformer layer over an n-token sequence (documented contract)."""
    d = d_model
    return (8 + 4 * mlp_ratio) * n * d * d + 4 * n * n * d


def pipeline_flops(trace: InferenceTrace) -> float:
    """Total prefill plus decode FLOPs for the traced run."""
    d, rho = trace.d_model, trace.mlp_ratio
    total = sum(layer_flops(n, d, rho) for n in trace.layer_lengths)
    # float64, not int64: exact below 2**53, and a wide d_model cannot wrap the products
    step = np.arange(1, trace.decode_steps + 1, dtype=np.float64)
    terms = (8 + 4 * rho) * d * d + 4 * d * np.add.outer(step, trace.cached_positions)
    return float(np.cumsum(np.concatenate(([total], terms.ravel())))[-1])


def kv_bytes(trace: InferenceTrace) -> int:
    """KV-cache footprint of the prompt: 2 * positions * d_model * element size, per layer."""
    return 2 * trace.d_model * BYTES_PER_ELEMENT * sum(trace.cached_positions)


@dataclass
class ReductionReport:
    """Baseline vs compressed totals and percentage reductions for one run pair."""

    flops_baseline: float
    flops_compressed: float
    kv_baseline: int
    kv_compressed: int
    config: dict

    @staticmethod
    def _pct(baseline: float, compressed: float) -> float:
        if baseline == 0:
            return 0.0
        return 100.0 * (1.0 - compressed / baseline)

    @property
    def flops_reduction_pct(self) -> float:
        return self._pct(self.flops_baseline, self.flops_compressed)

    @property
    def kv_reduction_pct(self) -> float:
        return self._pct(self.kv_baseline, self.kv_compressed)

    def to_dict(self) -> dict:
        return {
            "flops": {
                "baseline": self.flops_baseline,
                "compressed": self.flops_compressed,
                "reduction_pct": self.flops_reduction_pct,
            },
            "kv_bytes": {
                "baseline": self.kv_baseline,
                "compressed": self.kv_compressed,
                "reduction_pct": self.kv_reduction_pct,
            },
            "config": self.config,
        }


def reduction_report(
    baseline: InferenceTrace,
    compressed: InferenceTrace,
    config: dict | None = None,
) -> ReductionReport:
    """Compare two traces metric by metric: FLOPs and KV bytes, both deterministic."""
    return ReductionReport(
        flops_baseline=pipeline_flops(baseline),
        flops_compressed=pipeline_flops(compressed),
        kv_baseline=kv_bytes(baseline),
        kv_compressed=kv_bytes(compressed),
        config=config or {},
    )


def analytic_trace(
    cfg: RunConfig,
    n_key: int,
    n_nonkey: int,
    text_len: int,
    decode_steps: int,
) -> InferenceTrace:
    """Price a compressed run from the schedule alone, no forward pass needed.

    Per-layer lengths follow the two-group retention counts plus the text; the
    prompt cache keeps everything below the drop boundary and text only above it.
    """
    sched = PruneSchedule.from_config(cfg, n_key, n_nonkey)
    lengths = [
        sched.keep_count(l, "key") + sched.keep_count(l, "non_key") + text_len
        for l in range(cfg.layers)
    ]
    drop_layer = kv_drop_layer(cfg)
    cached = [lengths[l] if l < drop_layer else text_len for l in range(cfg.layers)]
    return InferenceTrace(
        layer_lengths=lengths,
        cached_positions=cached,
        decode_steps=decode_steps,
        d_model=cfg.d_model,
        mlp_ratio=cfg.mlp_ratio,
    )


def baseline_trace(
    cfg: RunConfig,
    n_visual: int,
    text_len: int,
    decode_steps: int,
) -> InferenceTrace:
    """Price the no-compression run: analytic_trace with every stage off keeps every token."""
    no_stages = config_with(cfg, disable_stages=STAGES)
    return analytic_trace(no_stages, n_visual, 0, text_len, decode_steps)
