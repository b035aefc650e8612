"""End-to-end runs: ingestion -> vision stage -> toy model or analytic pricing -> report.

Every simulation compares against an automatic no-compression baseline (all
stages disabled, uniform pooling at the configured baseline stride) so each
report is self-contained. The analytic path prices both runs from their vision
plans, pooling no token and never touching the toy model, which is what makes
large desk replicas cheap; compress_stats reads a plan too. The toy path makes
each run with toy_run on one shared model, and a caller that needs one run calls
it alone; each prefill's wall-clock is only printed, so the traces and the
report hold counts alone.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass

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
from .toy_llm import DecodeOutput, apply_kv_policy, decode, init_model, prefill
from .vision import TokenStream, VisionPlan, plan_vision_stage, run_vision_stage

__all__ = ["SimulationResult", "compress_stats", "run_simulation", "toy_run"]


@dataclass
class SimulationResult:
    stream: TokenStream | None              # None in analytic mode, which pools no token
    compressed: InferenceTrace
    baseline: InferenceTrace
    report: ReductionReport
    decode_output: DecodeOutput | None = None
    baseline_decode_output: DecodeOutput | None = None
    prefill_ms: dict[str, float] | None = None  # per run, toy mode only; printed, never saved

    def trace_dict(self) -> dict:
        """Both runs' traces plus each decode's tokens and logits digest."""
        out = {"baseline": asdict(self.baseline), "compressed": asdict(self.compressed)}
        if self.decode_output is not None:
            for name, dec in (("decode", self.decode_output),
                              ("baseline_decode", self.baseline_decode_output)):
                out[name] = {"tokens": dec.tokens.tolist(), "logits_digest": _digest(dec.logits)}
        return out


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def compress_stats(plan: VisionPlan, raw_tokens: int) -> dict:
    """Summary of what the vision stage keeps, for the compress artifact."""
    n_key, n_nonkey = plan.group_counts()
    partition = plan.partition
    return {
        "raw_tokens": raw_tokens,
        "retained_tokens": len(plan),
        "retained_fraction": len(plan) / raw_tokens if raw_tokens else 0.0,
        "key_group_tokens": n_key,
        "nonkey_group_tokens": n_nonkey,
        "num_events": partition.num_events,
        "event_boundaries": list(partition.boundaries),
        "key_events": [bool(b) for b in partition.key_event],
        "key_frames_per_event": [
            int(np.count_nonzero(partition.key_frame[ev.start : ev.stop]))
            for ev in partition.events
        ],
        "frame_strides": plan.frame_strides.tolist(),
    }


def toy_run(frames: FrameEmbeddings, text: TextEmbedding, cfg: RunConfig, model, steps: int,
            masses: np.ndarray | None = None
            ) -> tuple[TokenStream, InferenceTrace, DecodeOutput | None, float]:
    """One toy-model run: its pooled stream, trace, decode (steps >= 1) and prefill ms.

    The prefill cache has steps - 1 spare rows a layer for decode's generated K/V,
    and the KV policy's cache replaces it before decode, so the entries the policy
    drops are freed rather than held through decode. Given masses, decode writes
    its prompt masses there (toy_llm.decode).
    """
    stream, _ = run_vision_stage(frames, text, cfg)
    sched = PruneSchedule.from_config(cfg, *stream.group_counts())
    t0 = time.perf_counter()
    res = prefill(model, stream, sched, text, room=max(0, steps - 1))
    prefill_ms = (time.perf_counter() - t0) * 1000.0
    res.cache = cache = apply_kv_policy(res.cache, kv_drop_layer(cfg))  # frees dropped entries
    out = decode(model, cache, steps, res.final_logits, masses) if steps >= 1 else None
    trace = InferenceTrace(
        layer_lengths=res.layer_lengths,
        cached_positions=cache.entry_counts(),
        decode_steps=max(0, steps - 1),
        d_model=cfg.d_model,
        mlp_ratio=cfg.mlp_ratio,
    )
    return stream, trace, out, prefill_ms


def run_simulation(frames: FrameEmbeddings, text: TextEmbedding, cfg: RunConfig,
                   steps: int = 8, analytic: bool = False) -> SimulationResult:
    """Run the compressed pipeline and its no-compression baseline, then compare.

    The baseline disables every stage and pools uniformly at cfg.baseline_stride
    (stride 1 means raw tokens). In analytic mode both runs are priced from their
    vision plans and the schedule, pooling no token; decode FLOPs count steps-1
    forward passes, matching the toy path where the first token comes straight
    from prefill.
    """
    base_cfg = config_with(cfg, disable_stages=STAGES)
    m = text.num_tokens
    forwards = max(0, steps - 1)

    if analytic:
        plan = plan_vision_stage(frames, text, cfg)
        compressed = analytic_trace(cfg, *plan.group_counts(), m, forwards)
        base = baseline_trace(base_cfg, len(plan_vision_stage(frames, text, base_cfg)), m, forwards)
        stream = out = base_out = prefill_ms = None
    else:
        model = init_model(cfg)
        stream, compressed, out, comp_ms = toy_run(frames, text, cfg, model, steps)
        _, base, base_out, base_ms = toy_run(frames, text, base_cfg, model, steps)
        prefill_ms = {"baseline": base_ms, "compressed": comp_ms}

    report = reduction_report(base, compressed, config=cfg.to_dict())
    return SimulationResult(
        stream=stream,
        compressed=compressed,
        baseline=base,
        report=report,
        decode_output=out,
        baseline_decode_output=base_out,
        prefill_ms=prefill_ms,
    )
