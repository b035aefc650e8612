"""End-to-end runs: ingestion -> vision stage -> toy model or analytic pricing -> report.

Every simulation compares against an automatic no-compression baseline (all
stages disabled, uniform pooling at the configured baseline stride) so each
report is self-contained. The analytic path prices both runs straight from the
schedule without touching the toy model, which is what makes large desk
replicas cheap. The toy path also measures each prefill's wall-clock on its
trace; the report leaves it out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .accounting import (
    InferenceTrace,
    ReductionReport,
    analytic_trace,
    baseline_trace,
    reduction_report,
)
from .data_io import STAGES, FrameEmbeddings, RunConfig, TextEmbedding, config_with
from .schedule import PruneSchedule, kv_drop_layer
from .toy_llm import (
    DecodeOutput,
    apply_kv_policy,
    build_prefill_input,
    decode,
    init_model,
    prefill,
)
from .vision import EventPartition, TokenStream, run_vision_stage

__all__ = ["SimulationResult", "compress_stats", "run_simulation"]


@dataclass
class SimulationResult:
    stream: TokenStream
    compressed: InferenceTrace
    baseline: InferenceTrace
    report: ReductionReport
    decode_output: DecodeOutput | None = None
    baseline_decode_output: DecodeOutput | None = None

    def trace_dict(self) -> dict:
        def one(t: InferenceTrace) -> dict:
            return {
                "layer_lengths": t.layer_lengths,
                "cached_positions": t.cached_positions,
                "decode_steps": t.decode_steps,
                "d_model": t.d_model,
                "mlp_ratio": t.mlp_ratio,
            }

        out = {"baseline": one(self.baseline), "compressed": one(self.compressed)}
        if self.decode_output is not None:
            out["decode"] = {
                "tokens": self.decode_output.tokens.tolist(),
                "logits_digest": _digest(self.decode_output.logits),
            }
            out["baseline_decode"] = {
                "tokens": self.baseline_decode_output.tokens.tolist(),
                "logits_digest": _digest(self.baseline_decode_output.logits),
            }
        return out


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def compress_stats(stream: TokenStream, partition: EventPartition, raw_tokens: int) -> dict:
    """Summary of what the vision stage kept, for the compress artifact."""
    n_key, n_nonkey = stream.group_counts()
    return {
        "raw_tokens": raw_tokens,
        "retained_tokens": len(stream),
        "retained_fraction": len(stream) / raw_tokens if raw_tokens else 0.0,
        "key_group_tokens": n_key,
        "nonkey_group_tokens": n_nonkey,
        "num_events": partition.num_events,
        "event_boundaries": list(partition.boundaries),
        "key_events": [bool(b) for b in partition.key_event],
        "key_frames_per_event": [
            int(np.count_nonzero(partition.key_frame[ev.start : ev.stop]))
            for ev in partition.events
        ],
        "frame_strides": stream.frame_strides.tolist(),
    }


def _toy_trace(
    cfg: RunConfig,
    model,
    stream: TokenStream,
    text: TextEmbedding,
    steps: int,
) -> tuple[InferenceTrace, DecodeOutput | None]:
    n_key, n_nonkey = stream.group_counts()
    sched = PruneSchedule.from_config(cfg, n_key, n_nonkey)
    inp = build_prefill_input(model, stream, text)
    res = prefill(model, inp, sched)
    cache = apply_kv_policy(res.cache, kv_drop_layer(cfg))
    cached_counts = cache.entry_counts()
    out = None
    if steps >= 1:
        out = decode(model, cache, steps, res.final_logits)
    trace = InferenceTrace(
        layer_lengths=res.layer_lengths,
        cached_positions=cached_counts,
        decode_steps=max(0, steps - 1),
        d_model=cfg.d_model,
        mlp_ratio=cfg.mlp_ratio,
        prefill_ms=res.prefill_ms,
    )
    return trace, out


def run_simulation(
    frames: FrameEmbeddings,
    text: TextEmbedding,
    cfg: RunConfig,
    steps: int = 8,
    analytic: bool = False,
) -> SimulationResult:
    """Run the compressed pipeline and its no-compression baseline, then compare.

    The baseline disables every stage and pools uniformly at cfg.baseline_stride
    (stride 1 means raw tokens). In analytic mode both runs are priced from the
    schedule; decode FLOPs count steps-1 forward passes, matching the toy path
    where the first token comes straight from prefill.
    """
    base_cfg = config_with(cfg, disable_stages=STAGES)
    stream, _ = run_vision_stage(frames, text, cfg)
    base_stream, _ = run_vision_stage(frames, text, base_cfg)
    n_key, n_nonkey = stream.group_counts()
    m = text.num_tokens
    forwards = max(0, steps - 1)

    if analytic:
        compressed = analytic_trace(cfg, n_key, n_nonkey, m, forwards)
        base = baseline_trace(base_cfg, len(base_stream), m, forwards)
        out = base_out = None
    else:
        model = init_model(cfg)
        compressed, out = _toy_trace(cfg, model, stream, text, steps)
        base, base_out = _toy_trace(base_cfg, model, base_stream, text, steps)

    report = reduction_report(base, compressed, config=cfg.to_dict())
    return SimulationResult(
        stream=stream,
        compressed=compressed,
        baseline=base,
        report=report,
        decode_output=out,
        baseline_decode_output=base_out,
    )
