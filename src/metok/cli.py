"""Command-line entry point: gen / compress / simulate / diag / sweep.

Every run writes a manifest.json capturing the tool version, seed, effective
config, and sha256 digests of inputs and artifacts, so any artifact can be
reproduced bit for bit from its manifest. Exit codes: 0 success, 1 usage
error, 2 data error. METOK_THREADS caps how many sweep points run at once.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .data_io import (
    ConfigError,
    FrameEmbeddings,
    MebfError,
    RunConfig,
    TextEmbedding,
    atomic_write,
    config_with,
    gen_synthetic,
    load_config,
    read_embeddings,
    write_embeddings,
)
from .pipeline import compress_stats, run_simulation
from .toy_llm import attention_ratio_trace
from .vision import run_vision_stage

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors must exit 1
        raise UsageError(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text.encode())


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    out_dir: Path,
    command: str,
    argv: list[str],
    seed: int,
    config: dict,
    inputs: dict[str, Path],
    artifacts: list[Path],
) -> None:
    manifest = {
        "tool": "metok",
        "version": __version__,
        "command": command,
        "argv": argv,
        "seed": seed,
        "config": config,
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "artifacts": {p.relative_to(out_dir).as_posix(): _sha256(p) for p in sorted(artifacts)},
    }
    _write_json(out_dir / "manifest.json", manifest)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        h, w = int(h), int(w)
    except ValueError as e:
        raise UsageError(f"--grid expects HxW, got {text!r}") from e
    if h < 1 or w < 1:
        raise UsageError(f"grid dims must be positive, got {text!r}")
    return h, w


def _load_inputs(args) -> tuple[FrameEmbeddings, TextEmbedding]:
    frames = read_embeddings(Path(args.input))
    text = read_embeddings(Path(args.text))
    if not isinstance(frames, FrameEmbeddings):
        raise MebfError(f"{args.input}: expected a frame tensor record")
    if not isinstance(text, TextEmbedding):
        raise MebfError(f"{args.text}: expected a text embedding record")
    return frames, text


def _load_run_config(args) -> RunConfig:
    cfg = load_config(Path(args.config))
    overrides = {}
    for name in ("event_score", "baseline_stride", "frame_reduce"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return config_with(cfg, **overrides) if overrides else cfg


def _cmd_gen(args, argv) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h, w = _parse_grid(args.grid)
    frames, text = gen_synthetic(
        args.frames, h, w, args.dim, args.seed,
        num_segments=args.events, text_segment=args.text_event, text_len=args.text_len,
    )
    video_path, text_path = out / "video.mebf", out / "text.mebf"
    write_embeddings(frames, video_path)
    write_embeddings(text, text_path)
    _write_manifest(
        out, "gen", argv, args.seed,
        {
            "frames": args.frames, "grid": [h, w], "dim": args.dim,
            "events": args.events, "text_event": args.text_event, "text_len": args.text_len,
        },
        {}, [video_path, text_path],
    )
    print(f"wrote {video_path} ({frames.num_frames}x{frames.tokens_per_frame}x{frames.dim}) "
          f"and {text_path} ({text.num_tokens} prompt tokens)")
    return 0


def _cmd_compress(args, argv) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _load_run_config(args)
    frames, text = _load_inputs(args)
    stream, partition = run_vision_stage(frames, text, cfg)
    stats = compress_stats(stream, partition, frames.num_frames * frames.tokens_per_frame)
    stats_path = out / "stream_stats.json"
    _write_json(stats_path, stats)
    _write_manifest(
        out, "compress", argv, cfg.seed, cfg.to_dict(),
        {"input": Path(args.input), "text": Path(args.text)}, [stats_path],
    )
    print(f"retained {stats['retained_tokens']} of {stats['raw_tokens']} tokens "
          f"({100 * stats['retained_fraction']:.2f}%)")
    return 0


def _cmd_simulate(args, argv) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _load_run_config(args)
    frames, text = _load_inputs(args)
    result = run_simulation(frames, text, cfg, steps=args.steps, analytic=args.analytic)
    report_path, trace_path = out / "report.json", out / "trace.json"
    _write_json(report_path, result.report.to_dict())
    _write_json(trace_path, result.trace_dict())
    _write_manifest(
        out, "simulate", argv, cfg.seed, cfg.to_dict(),
        {"input": Path(args.input), "text": Path(args.text)}, [report_path, trace_path],
    )
    rep = result.report
    if not args.analytic:
        print(f"prefill_ms baseline={result.baseline.prefill_ms:.3f} "
              f"compressed={result.compressed.prefill_ms:.3f}")
    print(f"flops reduction {rep.flops_reduction_pct:.2f}%  "
          f"kv reduction {rep.kv_reduction_pct:.2f}%")
    return 0


def _cmd_diag_attention_ratio(args, argv) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _load_run_config(args)
    frames, text = _load_inputs(args)
    if args.steps < 2:
        raise UsageError("attention-ratio needs --steps >= 2 to record a decode forward")
    result = run_simulation(frames, text, cfg, steps=args.steps, analytic=False)
    ratios = attention_ratio_trace(result.decode_output)
    csv_path = out / "attention_ratio.csv"
    lines = ["layer,visual_ratio,text_ratio"]
    for layer in range(ratios.shape[0]):
        lines.append(f"{layer},{ratios[layer, 0]:.12g},{ratios[layer, 1]:.12g}")
    _write_text(csv_path, "\n".join(lines) + "\n")
    _write_manifest(
        out, "diag attention-ratio", argv, cfg.seed, cfg.to_dict(),
        {"input": Path(args.input), "text": Path(args.text)}, [csv_path],
    )
    print(f"wrote {csv_path}")
    return 0


_SWEEPABLE_INT = ("k", "s1", "s2", "layers")
_SWEEPABLE_FLOAT = ("alpha", "beta", "r")


def _parse_sweep_params(params: list[str]) -> list[tuple[str, list]]:
    axes = []
    for param in params:
        if "=" not in param:
            raise UsageError(f"--param expects name=v1,v2,..., got {param!r}")
        name, _, values = param.partition("=")
        if name in _SWEEPABLE_INT:
            cast = int
        elif name in _SWEEPABLE_FLOAT:
            cast = float
        else:
            raise UsageError(f"cannot sweep {name!r}; choose from "
                             f"{_SWEEPABLE_INT + _SWEEPABLE_FLOAT}")
        try:
            parsed = [cast(v) for v in values.split(",") if v != ""]
        except ValueError as e:
            raise UsageError(f"bad value in --param {param!r}") from e
        if not parsed:
            raise UsageError(f"--param {param!r} lists no values")
        axes.append((name, parsed))
    return axes


def _cmd_sweep(args, argv) -> int:
    cfg = _load_run_config(args)
    frames, text = _load_inputs(args)
    axes = _parse_sweep_params(args.param)
    names = [name for name, _ in axes]
    points = list(itertools.product(*(values for _, values in axes)))
    # every point's config is validated before any point runs or writes
    point_cfgs = [config_with(cfg, **dict(zip(names, point))) for point in points]
    threads = max(1, int(os.environ.get("METOK_THREADS", "1")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def run_point(index_point):
        index, (point, point_cfg) = index_point
        result = run_simulation(frames, text, point_cfg, steps=args.steps, analytic=args.analytic)
        point_dir = out / f"point_{index:03d}"
        point_dir.mkdir(parents=True, exist_ok=True)
        _write_json(point_dir / "report.json", result.report.to_dict())
        return index, point, result.report

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_point, enumerate(zip(points, point_cfgs))))
    else:
        results = [run_point(ip) for ip in enumerate(zip(points, point_cfgs))]
    results.sort(key=lambda row: row[0])

    lines = ["point," + ",".join(names) + ",flops_reduction_pct,kv_reduction_pct"]
    for index, point, rep in results:
        values = ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in point)
        lines.append(f"{index},{values},{rep.flops_reduction_pct:.12g},{rep.kv_reduction_pct:.12g}")
    summary_path = out / "summary.csv"
    _write_text(summary_path, "\n".join(lines) + "\n")
    artifacts = [summary_path] + [out / f"point_{i:03d}" / "report.json" for i, _, _ in results]
    _write_manifest(
        out, "sweep", argv, cfg.seed, cfg.to_dict(),
        {"input": Path(args.input), "text": Path(args.text)}, artifacts,
    )
    print(f"swept {len(points)} points over {names}")
    return 0


def _add_io_args(p: _Parser, with_steps: bool = True) -> None:
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--input", required=True, help="frame embeddings (MEBF)")
    p.add_argument("--text", required=True, help="text embedding (MEBF)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--event-score", dest="event_score", choices=["mean", "max"],
                   default=None, help="event relevance aggregation override")
    p.add_argument("--frame-reduce", dest="frame_reduce", choices=["mean", "flatten"],
                   default=None, help="adjacent-frame similarity reduction override")
    p.add_argument("--baseline-stride", dest="baseline_stride", type=int, default=None,
                   help="uniform pooling stride of the no-compression baseline")
    if with_steps:
        p.add_argument("--steps", type=int, default=8, help="tokens to decode")


def build_parser() -> _Parser:
    parser = _Parser(prog="metok", description=__doc__)
    parser.add_argument("--version", action="version", version=f"metok {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic embeddings")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--frames", type=int, required=True)
    gen.add_argument("--grid", required=True, help="token grid as HxW")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--events", type=int, default=1, help="planted ground-truth segments")
    gen.add_argument("--text-event", dest="text_event", type=int, default=None)
    gen.add_argument("--text-len", dest="text_len", type=int, default=8)
    gen.add_argument("--out", required=True)

    compress = sub.add_parser("compress", help="vision stage only; emit token-stream stats")
    _add_io_args(compress, with_steps=False)

    simulate = sub.add_parser("simulate", help="full pipeline vs automatic baseline")
    _add_io_args(simulate)
    simulate.add_argument("--analytic", action="store_true",
                          help="price runs from the schedule; skip the toy forward pass")

    diag = sub.add_parser("diag", help="diagnostics")
    diag_sub = diag.add_subparsers(dest="diag_command", required=True)
    attn = diag_sub.add_parser("attention-ratio", help="per-layer visual/text attention CSV")
    _add_io_args(attn)

    sweep = sub.add_parser("sweep", help="cartesian parameter sweep, one report per point")
    _add_io_args(sweep)
    sweep.add_argument("--param", action="append", required=True,
                       help="axis as name=v1,v2,... (repeatable)")
    sweep.add_argument("--analytic", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args, argv)
        if args.command == "compress":
            return _cmd_compress(args, argv)
        if args.command == "simulate":
            return _cmd_simulate(args, argv)
        if args.command == "diag":
            return _cmd_diag_attention_ratio(args, argv)
        if args.command == "sweep":
            return _cmd_sweep(args, argv)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (MebfError, ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
