"""The benchmark's workloads: inputs made from the seed, one op, and its output.

The program only receives generated inputs: FrameEmbeddings and TextEmbedding
after an MEBF write/read round trip (toy workloads), or MEBF and config files
on disk (the CLI workload). Functions of the program are looked up through
their module at call time, so the spans of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

from metok import cli, pipeline
from metok.accounting import analytic_trace, baseline_trace, kv_bytes, pipeline_flops
from metok.data_io import RunConfig, config_with, gen_synthetic, read_embeddings, write_embeddings
from metok.vision import run_vision_stage

DEFAULT_SEED = 1234
EMBED_DIM = 32
# the ROADMAP "mid" model
TOY_MODEL = {"k": 6, "layers": 12, "heads": 4, "d_model": 128, "layer_boundaries": (3, 6, 9)}
# acceptance criterion 6: the 7B desk replica (28 layers, 128 frames of 24x24)
REPLICA_MODEL = {
    "k": 13, "alpha": 0.5, "beta": 0.45, "s1": 2, "s2": 3, "r": 0.55,
    "layer_boundaries": [3, 10, 19], "layers": 28, "heads": 28, "d_model": 3584,
    "mlp_ratio": 18944 / 3584,
}
REPLICA_GRID = [{"r": r, "alpha": a, "beta": b}
                for r in (0.3, 0.55, 0.7) for a in (0.4, 0.5, 0.8) for b in (0.3, 0.45, 0.6)]
_ALL_STAGES = ("vision", "prefill", "decode")


class OpError(Exception):
    """An op that ran to completion but reported failure."""


def _round_trip(frames, text, workdir: Path):
    video_path, text_path = workdir / "video.mebf", workdir / "text.mebf"
    write_embeddings(frames, video_path)
    write_embeddings(text, text_path)
    return read_embeddings(video_path), read_embeddings(text_path), video_path, text_path


def _expected(cfg: RunConfig, n_key: int, n_nonkey: int, n_baseline: int,
              text_len: int, forwards: int) -> dict:
    """Analytic accounting of a run pair whose compressed stream has these group counts."""
    base_cfg = config_with(cfg, disable_stages=_ALL_STAGES)
    traces = {"compressed": analytic_trace(cfg, n_key, n_nonkey, text_len, forwards),
              "baseline": baseline_trace(base_cfg, n_baseline, text_len, forwards)}
    return {
        "lengths": {run: list(t.layer_lengths) for run, t in traces.items()},
        "cached": {run: list(t.cached_positions) for run, t in traces.items()},
        "report": {
            "flops_baseline": pipeline_flops(traces["baseline"]),
            "flops_compressed": pipeline_flops(traces["compressed"]),
            "kv_baseline": kv_bytes(traces["baseline"]),
            "kv_compressed": kv_bytes(traces["compressed"]),
        },
    }


class ToyWorkload:
    """One in-process toy run_simulation per op: the compressed run and its baseline."""

    points = 1

    def __init__(self, frames: int, grid: int, events: int, text_len: int, steps: int):
        self.num_frames, self.grid, self.events = frames, grid, events
        self.text_len, self.steps = text_len, steps
        self.raw_tokens = frames * grid * grid

    def setup(self, seed: int, workdir: Path) -> None:
        frames, text = gen_synthetic(self.num_frames, self.grid, self.grid, EMBED_DIM, seed,
                                     num_segments=self.events, text_len=self.text_len)
        self.frames, self.text, _, _ = _round_trip(frames, text, workdir)
        self.cfg = RunConfig(**TOY_MODEL, seed=seed)

    def prepare_checks(self) -> None:
        """Nothing to prepare: a toy output carries the stream counts its check needs."""

    def run(self, point: int):
        return pipeline.run_simulation(self.frames, self.text, self.cfg, steps=self.steps)

    def output(self, point: int, result) -> dict:
        n_key, n_nonkey = result.stream.group_counts()
        rep = result.report
        runs = {"baseline": (result.baseline, result.baseline_decode_output),
                "compressed": (result.compressed, result.decode_output)}
        return {
            "lengths": {run: list(t.layer_lengths) for run, (t, _) in runs.items()},
            "cached": {run: list(t.cached_positions) for run, (t, _) in runs.items()},
            "report": {"flops_baseline": rep.flops_baseline,
                       "flops_compressed": rep.flops_compressed,
                       "kv_baseline": rep.kv_baseline, "kv_compressed": rep.kv_compressed},
            "tokens": {run: d.tokens.tolist() for run, (_, d) in runs.items()},
            "logits": {run: d.logits for run, (_, d) in runs.items()},
            "expected": _expected(self.cfg, n_key, n_nonkey, self.raw_tokens,
                                  self.text.num_tokens, self.steps - 1),
        }


class ReplicaWorkload:
    """In-process `metok simulate --analytic` on the criterion-6 replica input.

    Ops cycle through one config file per point of REPLICA_GRID; the toy model
    never runs.
    """

    points = len(REPLICA_GRID)
    num_frames, grid, events, text_len, steps, baseline_stride = 128, 24, 13, 64, 64, 2
    raw_tokens = num_frames * grid * grid

    def setup(self, seed: int, workdir: Path) -> None:
        frames, text = gen_synthetic(self.num_frames, self.grid, self.grid, EMBED_DIM, seed,
                                     num_segments=self.events, text_len=self.text_len)
        self.frames, self.text, video, text_path = _round_trip(frames, text, workdir)
        self.out_dir = workdir / "out"
        self.cfg = RunConfig(**REPLICA_MODEL, seed=seed, baseline_stride=self.baseline_stride)
        self.configs, self.argv = [], []
        for i, point in enumerate(REPLICA_GRID):
            config_path = workdir / f"config_{i:02d}.json"
            config_path.write_text(json.dumps({**REPLICA_MODEL, **point, "seed": seed}))
            self.configs.append(config_with(self.cfg, **point))
            self.argv.append([
                "simulate", "--analytic", "--config", str(config_path), "--input", str(video),
                "--text", str(text_path), "--out", str(self.out_dir),
                "--baseline-stride", str(self.baseline_stride), "--steps", str(self.steps),
            ])

    def run(self, point: int) -> int:
        with redirect_stdout(io.StringIO()):
            code = cli.main(list(self.argv[point]))
        if code != 0:
            raise OpError(f"metok simulate exited {code}")
        return code

    def prepare_checks(self) -> None:
        """Analytic accounting of every point, from the benchmark's own vision-stage run."""
        n_baseline = self.num_frames * math.ceil(self.grid / self.baseline_stride) ** 2
        self.expected = []
        for cfg in self.configs:
            n_key, n_nonkey = run_vision_stage(self.frames, self.text, cfg)[0].group_counts()
            self.expected.append(_expected(cfg, n_key, n_nonkey, n_baseline,
                                           self.text_len, self.steps - 1))

    def output(self, point: int, result) -> dict:
        report = json.loads((self.out_dir / "report.json").read_text())
        trace = json.loads((self.out_dir / "trace.json").read_text())
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        problems = [f"manifest: digest of {name} does not match the file"
                    for name, digest in manifest["artifacts"].items()
                    if hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest() != digest]
        return {
            "lengths": {run: trace[run]["layer_lengths"] for run in ("baseline", "compressed")},
            "cached": {run: trace[run]["cached_positions"] for run in ("baseline", "compressed")},
            "report": {"flops_baseline": report["flops"]["baseline"],
                       "flops_compressed": report["flops"]["compressed"],
                       "kv_baseline": report["kv_bytes"]["baseline"],
                       "kv_compressed": report["kv_bytes"]["compressed"]},
            "expected": self.expected[point],
            "problems": problems,
        }


WORKLOADS = {
    "prefill_long_video": lambda: ToyWorkload(frames=32, grid=8, events=6, text_len=32, steps=4),
    "decode_long_answer": lambda: ToyWorkload(frames=16, grid=4, events=4, text_len=16, steps=256),
    "analytic_replica": ReplicaWorkload,
}
