"""Command-line entry point: gen / compress / simulate / diag / sweep.

Every run writes a manifest.json capturing the tool version, seed, effective
config, and sha256 digests of inputs and artifacts, so any artifact can be
reproduced bit for bit from its manifest. A command's body returns its
artifacts as bytes, and one writer writes them and hashes the bytes it wrote,
so no artifact is read back; gen streams its MEBF files and hashes those. The
input digests are computed on a worker thread while the command runs, from the
inputs' mapped pages one released slice at a time; the thread never outlives
the command.
The config file sets every RunConfig field outside RUNTIME_FIELDS; flags set
those. Exit codes: 0 success, 1 usage error, 2 data error (a malformed config
or input file, or inputs that do not fit together); any other failure is a bug
and surfaces as a traceback.
Config and inputs are checked once, as they enter; the library behind trusts
them. A command that fails before its first write writes nothing: --out appears
only once every check has passed and the body (each sweep point) has run. A
failed write keeps the artifacts already written, each whole: a trace.json
blocked by a directory leaves report.json. A command runs only the work it
writes: compress and sweep read vision plans, never the toy model, and diag
makes the compressed run alone.
main may be called many times in one process: the parser and RunConfig's field
types are built once, and everything read from argv or files is read per call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import mmap
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .data_io import (
    EVENT_SCORES,
    FRAME_REDUCES,
    RUNTIME_FIELDS,
    ConfigError,
    FrameEmbeddings,
    MebfError,
    TextEmbedding,
    _config_hints,
    atomic_write,
    config_with,
    gen_synthetic,
    load_config,
    read_embeddings,
    write_embeddings,
)
from .kernels import ZeroNormError
from .pipeline import compress_stats, run_simulation, toy_run
from .toy_llm import attention_ratio_trace, init_model
from .vision import plan_vision_stage

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors must exit 1
        raise UsageError(message)


_HASH_SLICE = 1 << 20  # bytes hashed per GIL release; each slice's pages are released once hashed
_RELEASE = getattr(mmap, "MADV_DONTNEED", None)  # None where mmap has no madvise (Windows)


def _sha256(path: Path, stop: threading.Event | None = None) -> str | None:
    """Hex sha256 of the file, or None if stop is set before the last slice.

    The file is hashed from its mapped pages, so nothing is copied out of the
    page cache, and each slice's pages leave the mapping once hashed, so at most
    one slice of a large input counts toward RSS.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # mmap refuses length 0
            return digest.hexdigest()
        with (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped,
              memoryview(mapped) as view):
            for start in range(0, len(mapped), _HASH_SLICE):
                if stop is not None and stop.is_set():
                    return None
                digest.update(view[start : start + _HASH_SLICE])
                if _RELEASE is not None:
                    mapped.madvise(_RELEASE, start, _HASH_SLICE)
    return digest.hexdigest()


def _json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _manifest(command: str, argv: list[str], seed: int, config: dict,
              inputs: dict[str, str], artifacts: dict[str, str]) -> bytes:
    """manifest.json's bytes, from the sha256 digests of the inputs and of the artifacts."""
    return _json({"tool": "metok", "version": __version__, "command": command, "argv": argv,
                  "seed": seed, "config": config, "inputs": inputs, "artifacts": artifacts})


def _write(out: Path, files: dict[str, bytes]) -> None:
    """Write each file, named relative to out, through atomic_write."""
    for name, data in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as fh:
            fh.write(data)


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

    Once the config and inputs pass their checks, body(args, cfg, frames, text)
    runs and returns its files' bytes by name relative to --out; the handler
    writes them, and manifest.json, whose artifact digests hash those bytes,
    comes last. The inputs are hashed on one worker thread while the rest runs
    (hashlib releases the GIL for each slice of mapped pages), and the thread is
    joined before the handler returns. A hash error surfaces only once the
    body's files are written; a failed command stops the hashing at its next
    slice rather than waiting for digests it will not write.
    """
    def handler(args, argv) -> int:
        stop = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as hasher:
            digests = {name: hasher.submit(_sha256, Path(getattr(args, name)), stop)
                       for name in ("input", "text")}
            try:
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
                files = body(args, cfg, frames, text)
                out = Path(args.out)
                _write(out, files)  # while the inputs may still be hashing
                inputs = {name: digest.result() for name, digest in digests.items()}
                artifacts = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
                _write(out, {"manifest.json": _manifest(command, argv, cfg.seed, cfg.to_dict(),
                                                        inputs, artifacts)})
            finally:
                stop.set()  # on success every digest is already in hand
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
    config = {
        "frames": args.frames, "grid": [h, w], "dim": args.dim,
        "events": args.events, "text_event": args.text_event, "text_len": args.text_len,
    }
    artifacts = {path.name: _sha256(path) for path in (video_path, text_path)}
    _write(out, {"manifest.json": _manifest("gen", argv, args.seed, config, {}, artifacts)})
    print(f"wrote {video_path} ({frames.num_frames}x{frames.tokens_per_frame}x{frames.dim}) "
          f"and {text_path} ({text.num_tokens} prompt tokens)")
    return 0


def _compress(args, cfg, frames, text) -> dict[str, bytes]:
    plan = plan_vision_stage(frames, text, cfg)
    stats = compress_stats(plan, frames.num_frames * frames.tokens_per_frame)
    print(f"retained {stats['retained_tokens']} of {stats['raw_tokens']} tokens "
          f"({100 * stats['retained_fraction']:.2f}%)")
    return {"stream_stats.json": _json(stats)}


def _simulate(args, cfg, frames, text) -> dict[str, bytes]:
    result = run_simulation(frames, text, cfg, steps=args.steps, analytic=args.analytic)
    rep = result.report
    if result.prefill_ms is not None:
        print(f"prefill_ms baseline={result.prefill_ms['baseline']:.3f} "
              f"compressed={result.prefill_ms['compressed']:.3f}")
    print(f"flops reduction {rep.flops_reduction_pct:.2f}%  "
          f"kv reduction {rep.kv_reduction_pct:.2f}%")
    return {"report.json": _json(rep.to_dict()), "trace.json": _json(result.trace_dict())}


def _diag_attention_ratio(args, cfg, frames, text) -> dict[str, bytes]:
    if args.steps < 2:
        raise UsageError("attention-ratio needs --steps >= 2 to record a decode forward")
    masses = np.empty((args.steps - 1, cfg.layers, 2))
    toy_run(frames, text, cfg, init_model(cfg), args.steps, masses)
    ratios = attention_ratio_trace(masses)
    lines = ["layer,visual_ratio,text_ratio"]
    lines += [f"{layer},{vis:.12g},{txt:.12g}" for layer, (vis, txt) in enumerate(ratios)]
    print(f"wrote {Path(args.out) / 'attention_ratio.csv'}")
    return {"attention_ratio.csv": ("\n".join(lines) + "\n").encode()}


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
        cast = _config_hints()[name]
        try:
            parsed = [cast(v) for v in values.split(",") if v != ""]
        except ValueError as e:
            raise UsageError(f"bad value in --param {param!r}") from e
        if not parsed:
            raise UsageError(f"--param {param!r} lists no values")
        axes[name] = parsed
    return axes


def _sweep(args, cfg, frames, text) -> dict[str, bytes]:
    axes = _parse_sweep_params(args.param)
    points = list(itertools.product(*axes.values()))
    # every point's config is checked before any point runs
    point_cfgs = [config_with(cfg, **dict(zip(axes, point))) for point in points]
    # a report holds counts alone, and the plan prices them exactly as the toy model measures
    reports = [run_simulation(frames, text, point_cfg, steps=args.steps, analytic=True).report
               for point_cfg in point_cfgs]

    files = {}
    lines = ["point," + ",".join(axes) + ",flops_reduction_pct,kv_reduction_pct"]
    for index, (point, rep) in enumerate(zip(points, reports)):
        files[f"point_{index:03d}/report.json"] = _json(rep.to_dict())
        values = ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in point)
        lines.append(f"{index},{values},{rep.flops_reduction_pct:.12g},{rep.kv_reduction_pct:.12g}")
    files["summary.csv"] = ("\n".join(lines) + "\n").encode()
    print(f"swept {len(points)} points over {list(axes)}")
    return files


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


@functools.cache
def build_parser() -> _Parser:  # built on the first call, shared by every later main
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
