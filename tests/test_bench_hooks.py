"""The benchmark's tracer wraps program functions by name, so a rename breaks it.

This guard installs the tracer from bench/tracing.py and runs one small traced
simulation, so a removed or renamed hook fails here rather than only in the
benchmark's own smoke run.
"""

import importlib.util
from pathlib import Path

from metok import pipeline
from metok.data_io import RunConfig, gen_synthetic

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_record_spans():
    tracing = load_tracing()
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS]
    frames, text = gen_synthetic(8, 4, 4, 16, seed=3, num_segments=2)
    cfg = RunConfig(k=2, layers=4, heads=2, d_model=16, layer_boundaries=(1, 2, 3))
    tracer = tracing.Tracer(cfg.mlp_ratio)
    tracer.install()  # resolves every TARGETS attribute
    try:
        with tracer.op(0):
            pipeline.run_simulation(frames, text, cfg, steps=3)
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS] == originals
    names = {span[0] for span in tracer.spans}
    assert {"vision.pool", "toy_llm.prefill", "toy_llm.kv_policy", "toy_llm.decode"} <= names
    metrics, _ = tracing.summarize(tracer, ops=1)
    assert metrics["toy_llm.kv_entries"] > 0
    assert metrics["schedule.kept_frac.l1"] > 0
