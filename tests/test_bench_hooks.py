"""The benchmark's tracer wraps program functions by name, so a rename breaks it.

This guard installs the tracer from bench/tracing.py and runs one small traced
simulation, so a removed or renamed hook fails here rather than only in the
benchmark's own smoke run.
"""

import importlib.util
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from metok import cli, pipeline
from metok.data_io import RunConfig, gen_synthetic, write_embeddings

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


def test_traced_cli_op_records_one_span_per_call(tmp_path):
    """An analytic `metok simulate` reaches every CLI-side hook through its module.

    It prices both runs from their vision plans, so it pools no token: the
    compressed plan segments, scores and selects once, and the baseline plan
    is the bypass.
    """
    tracing = load_tracing()
    frames, text = gen_synthetic(8, 4, 4, 16, seed=3, num_segments=2)
    write_embeddings(frames, tmp_path / "video.mebf")
    write_embeddings(text, tmp_path / "text.mebf")
    cfg = {"k": 2, "layers": 4, "heads": 2, "d_model": 16, "layer_boundaries": [1, 2, 3]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = ["simulate", "--analytic", "--config", str(tmp_path / "cfg.json"),
            "--input", str(tmp_path / "video.mebf"), "--text", str(tmp_path / "text.mebf"),
            "--out", str(tmp_path / "out"), "--steps", "3"]
    tracer = tracing.Tracer(1.0)
    tracer.install()
    try:
        with tracer.op(0), redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    counts = Counter(span[0] for span in tracer.spans)
    assert counts["cli.main"] == 1
    assert counts["data_io.read"] == 2
    assert counts["pipeline.run_simulation"] == 1
    assert counts["accounting.price"] == 3
    assert counts["vision.segment"] == counts["vision.score"] == counts["vision.select"] == 1
    assert counts["vision.pool"] == 0 and counts["kernels.avg_pool"] == 0
