"""Command-line entry point: gen / compress / simulate / diag / sweep.

Every run writes a manifest.json capturing the tool version, seed, effective
config, and sha256 digests of inputs and artifacts, so any artifact can be
reproduced bit for bit from its manifest. The config file sets every RunConfig
field outside RUNTIME_FIELDS; flags set those. Exit codes: 0 success, 1 usage
error, 2 data error (a malformed config or input file, or inputs that do not
fit together); any other failure is a bug and surfaces as a traceback.
A failed command writes nothing: --out and its artifacts appear only once the
config and inputs pass every check, and a sweep writes only after every point
has run. METOK_THREADS caps how many sweep points run at once.
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
from typing import get_type_hints

from . import __version__
from .data_io import (
    EVENT_SCORES,
    FRAME_REDUCES,
    RUNTIME_FIELDS,
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
from .kernels import ZeroNormError
from .pipeline import compress_stats, run_simulation
from .toy_llm import attention_ratio_trace
from .vision import plan_vision_stage

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors must exit 1
        raise UsageError(message)


_HASH_CHUNK = 1 << 18  # bytes per read while hashing, so a large input is never held whole


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _on_inputs(command: str, body):
    """Handler of a command over --config, --input and --text.

    Once the config and inputs pass their checks, body(args, cfg, frames, text,
    out) writes the artifacts and returns their paths; the manifest comes last.
    """
    def handler(args, argv) -> int:
        if getattr(args, "steps", 0) < 0:
            raise UsageError(f"--steps must not be negative, got {args.steps}")
        cfg = load_config(Path(args.config))
        overrides = {name: getattr(args, name) for name in RUNTIME_FIELDS
                     if getattr(args, name) is not None}
        cfg = config_with(cfg, **overrides) if overrides else cfg
        frames, text = read_embeddings(Path(args.input)), read_embeddings(Path(args.text))
        if not isinstance(frames, FrameEmbeddings):
            raise MebfError(f"{args.input}: expected a frame tensor record")
        if not isinstance(text, TextEmbedding):
            raise MebfError(f"{args.text}: expected a text embedding record")
        if frames.dim != text.dim:
            raise MebfError(f"embedding dims differ: frames {frames.dim}, text {text.dim}")
        out = Path(args.out)
        artifacts = body(args, cfg, frames, text, out)
        _write_manifest(
            out, command, argv, cfg.seed, cfg.to_dict(),
            {"input": Path(args.input), "text": Path(args.text)}, artifacts,
        )
        return 0

    return handler


def _cmd_gen(args, argv) -> int:
    h, w = _parse_grid(args.grid)
    try:
        frames, text = gen_synthetic(
            args.frames, h, w, args.dim, args.seed,
            num_segments=args.events, text_segment=args.text_event, text_len=args.text_len,
        )
    except ValueError as e:
        raise UsageError(str(e)) from e
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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


def _compress(args, cfg, frames, text, out) -> list[Path]:
    plan = plan_vision_stage(frames, text, cfg)
    stats = compress_stats(plan, frames.num_frames * frames.tokens_per_frame)
    stats_path = out / "stream_stats.json"
    _write_json(stats_path, stats)
    print(f"retained {stats['retained_tokens']} of {stats['raw_tokens']} tokens "
          f"({100 * stats['retained_fraction']:.2f}%)")
    return [stats_path]


def _simulate(args, cfg, frames, text, out) -> list[Path]:
    result = run_simulation(frames, text, cfg, steps=args.steps, analytic=args.analytic)
    report_path, trace_path = out / "report.json", out / "trace.json"
    _write_json(report_path, result.report.to_dict())
    _write_json(trace_path, result.trace_dict())
    rep = result.report
    if not args.analytic:
        print(f"prefill_ms baseline={result.baseline.prefill_ms:.3f} "
              f"compressed={result.compressed.prefill_ms:.3f}")
    print(f"flops reduction {rep.flops_reduction_pct:.2f}%  "
          f"kv reduction {rep.kv_reduction_pct:.2f}%")
    return [report_path, trace_path]


def _diag_attention_ratio(args, cfg, frames, text, out) -> list[Path]:
    if args.steps < 2:
        raise UsageError("attention-ratio needs --steps >= 2 to record a decode forward")
    result = run_simulation(frames, text, cfg, steps=args.steps, analytic=False)
    ratios = attention_ratio_trace(result.decode_output)
    lines = ["layer,visual_ratio,text_ratio"]
    lines += [f"{layer},{vis:.12g},{txt:.12g}" for layer, (vis, txt) in enumerate(ratios)]
    csv_path = out / "attention_ratio.csv"
    _write_text(csv_path, "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    return [csv_path]


_SWEEPABLE = ("k", "alpha", "beta", "s1", "s2", "r", "layers")


def _parse_sweep_params(params: list[str]) -> dict[str, list]:
    axes = {}
    for param in params:
        if "=" not in param:
            raise UsageError(f"--param expects name=v1,v2,..., got {param!r}")
        name, _, values = param.partition("=")
        if name not in _SWEEPABLE:
            raise UsageError(f"cannot sweep {name!r}; choose from {_SWEEPABLE}")
        if name in axes:
            raise UsageError(f"--param {name} given more than once")
        cast = get_type_hints(RunConfig)[name]
        try:
            parsed = [cast(v) for v in values.split(",") if v != ""]
        except ValueError as e:
            raise UsageError(f"bad value in --param {param!r}") from e
        if not parsed:
            raise UsageError(f"--param {param!r} lists no values")
        axes[name] = parsed
    return axes


def _sweep(args, cfg, frames, text, out) -> list[Path]:
    axes = _parse_sweep_params(args.param)
    points = list(itertools.product(*axes.values()))
    # every point's config is checked before any point runs
    point_cfgs = [config_with(cfg, **dict(zip(axes, point))) for point in points]
    threads = os.environ.get("METOK_THREADS", "1")
    try:
        threads = max(1, int(threads))  # values below 1 mean one thread
    except ValueError:
        raise UsageError(f"METOK_THREADS must be an integer, got {threads!r}") from None

    def point_report(point_cfg):
        return run_simulation(frames, text, point_cfg, steps=args.steps,
                              analytic=args.analytic).report

    with ThreadPoolExecutor(max_workers=threads) as pool:
        reports = list(pool.map(point_report, point_cfgs))

    # written only once every point has run, so a failed point leaves nothing behind
    report_paths = []
    lines = ["point," + ",".join(axes) + ",flops_reduction_pct,kv_reduction_pct"]
    for index, (point, rep) in enumerate(zip(points, reports)):
        report_paths.append(out / f"point_{index:03d}" / "report.json")
        _write_json(report_paths[-1], rep.to_dict())
        values = ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in point)
        lines.append(f"{index},{values},{rep.flops_reduction_pct:.12g},{rep.kv_reduction_pct:.12g}")
    summary_path = out / "summary.csv"
    _write_text(summary_path, "\n".join(lines) + "\n")
    print(f"swept {len(points)} points over {list(axes)}")
    return [summary_path, *report_paths]


def _add_io_args(p: _Parser, command: str, body, with_steps: bool = True) -> None:
    p.set_defaults(handler=_on_inputs(command, body))
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--input", required=True, help="frame embeddings (MEBF)")
    p.add_argument("--text", required=True, help="text embedding (MEBF)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--event-score", dest="event_score", choices=EVENT_SCORES,
                   default=None, help="event relevance aggregation override")
    p.add_argument("--frame-reduce", dest="frame_reduce", choices=FRAME_REDUCES,
                   default=None, help="adjacent-frame similarity reduction override")
    p.add_argument("--baseline-stride", dest="baseline_stride", type=int, default=None,
                   help="uniform pooling stride of the no-compression baseline")
    if with_steps:
        p.add_argument("--steps", type=int, default=8, help="tokens to decode (0: prefill only)")


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
    gen.set_defaults(handler=_cmd_gen)

    compress = sub.add_parser("compress", help="vision stage only; emit token-stream stats")
    _add_io_args(compress, "compress", _compress, with_steps=False)

    simulate = sub.add_parser("simulate", help="full pipeline vs automatic baseline")
    _add_io_args(simulate, "simulate", _simulate)
    simulate.add_argument("--analytic", action="store_true",
                          help="price runs from the schedule; skip the toy forward pass")

    diag = sub.add_parser("diag", help="diagnostics")
    diag_sub = diag.add_subparsers(dest="diag_command", required=True)
    attn = diag_sub.add_parser("attention-ratio", help="per-layer visual/text attention CSV")
    _add_io_args(attn, "diag attention-ratio", _diag_attention_ratio)

    sweep = sub.add_parser("sweep", help="cartesian parameter sweep, one report per point")
    _add_io_args(sweep, "sweep", _sweep)
    sweep.add_argument("--param", action="append", required=True,
                       help="axis as name=v1,v2,... (repeatable)")
    sweep.add_argument("--analytic", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (MebfError, ConfigError, ZeroNormError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
