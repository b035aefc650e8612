#!/usr/bin/env python3
"""metok benchmark: one workload per process, a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke             # every workload briefly; checks every metric
    python3 bench/run.py --make-reference    # rewrite bench/reference/ from the program

Each op starts only when the previous one has finished, and every op's output
is checked (see checks.py). With --trace 0 the run reports the end-to-end
metrics. With --trace 1 it alternates traced and untraced ops and reports the
per-layer metrics of the traced ones, plus the tracing overhead. The last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it records the environment and the sample counts.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS reads its thread count when numpy loads, so pin it before any import of numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SCRIPT = Path(__file__).resolve()
BENCH_DIR = SCRIPT.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10

UNITS = {
    "setup_s": "s", "op_s_p50": "s", "vtok_per_s": "tokens/s", "peak_rss_mb": "MB",
    "data_io.read_s": "s", "data_io.read_mb_per_s": "MB/s",
    "vision.segment_s": "s", "vision.score_s": "s", "vision.select_s": "s",
    "vision.pool_s": "s", "vision.tokens_out": "count", "vision.retained_frac": "ratio",
    "kernels.avg_pool_s": "s", "kernels.avg_pool_calls": "count",
    "schedule.importance_s": "s", "schedule.select_s": "s",
    "schedule.kept_frac.l1": "ratio", "schedule.kept_frac.l2": "ratio",
    "schedule.kept_frac.l3": "ratio",
    "toy_llm.init_s": "s", "toy_llm.prefill_s.baseline": "s",
    "toy_llm.prefill_s.compressed": "s", "toy_llm.prefill_gflops_per_s": "GFLOP/s",
    "toy_llm.kv_policy_s": "s", "toy_llm.kv_entries": "count", "toy_llm.decode_s": "s",
    "toy_llm.decode_step_ms": "ms", "accounting.price_s": "s", "pipeline.self_s": "s",
    "cli.self_s": "s", "bench.self_s": "s", "bench.op_s_traced_p50": "s",
    "bench.op_s_untraced_p50": "s", "bench.trace_overhead_s": "s",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(durations: list[float]) -> dict | None:
    """Highest listed percentile with at least TAIL_BEYOND samples above its rank."""
    n = len(durations)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return {"percentile": pct, "value": sorted(durations)[rank - 1], "samples": n}
    return None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "metok").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its first op would be ready.

    The child prints the system-wide monotonic clock once its set-up is done, so
    neither its exit nor the parent's wait enters the figure.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1]) - start


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.setup(args.seed, workdir)
        if args.setup_only:
            print(time.monotonic())
            return 0
        return _measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload) -> int:
    import checks
    from tracing import Tracer, summarize
    from workloads import DEFAULT_SEED

    workload.prepare_checks()
    ref_path = REFERENCE_DIR / f"{args.workload}.npz"
    ref = checks.load_reference(ref_path) if args.seed == DEFAULT_SEED else None
    tracer = Tracer(workload.cfg.mlp_ratio) if args.trace else None
    min_ops = 2 if tracer else 1

    times = {True: [], False: []}        # op wall times, keyed by whether the op was traced
    first: dict[int, dict] = {}
    problems: list[str] = []
    attempted = failed = completed = 0
    phase_start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - phase_start < args.seconds:
        point = attempted % workload.points
        traced = tracer is not None and attempted % 2 == 0
        error = result = None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op(attempted):
                    result = workload.run(point)
            else:
                result = workload.run(point)
        except Exception as e:  # a failing op is counted and the loop goes on
            error = f"op {attempted}: {type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        times[traced].append(elapsed)
        attempted += 1
        if error is None:
            out = workload.output(point, result)
            found = checks.check(out, first.get(point), ref[point] if ref else None)
            first.setdefault(point, out)
        else:
            found = [error]
        if found:
            failed += 1
            problems += found[: max(0, 5 - len(problems))]
        else:
            completed += 1
    phase_s = time.perf_counter() - phase_start
    # after the timed phase, so the probe processes do not disturb the ops
    setup_samples = [] if tracer else [_setup_probe(args.workload, args.seed)
                                       for _ in range(SETUP_REPEATS)]

    negative = checks.negative_test(first[0], ref[0] if ref else None) if 0 in first else {}
    correct = failed == 0 and bool(negative) and all(negative.values())
    untraced = times[False]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "closed_loop_clients": 1,
        "ops": attempted,
        "ops_traced": len(times[True]),
        "points": workload.points,
        "raw_visual_tokens_per_op": workload.raw_tokens,
        "failed_frac": failed / attempted,
        "timed_phase_s": phase_s,
        "op_s_p50": {"value": _median(untraced), "samples": len(untraced)},
        "op_s_tail": _tail(untraced),
        "op_s_samples": untraced,
        "setup_s_samples": setup_samples,
        "reference_checked": ref is not None,
        "negative_test_rejected": negative,
        "problems": problems,
    }
    if tracer is None:
        metrics = {
            "setup_s": _median(setup_samples),
            "op_s_p50": _median(untraced),
            "vtok_per_s": completed * workload.raw_tokens / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics, by_layer = summarize(tracer, len(times[True]))
        traced_p50, untraced_p50 = _median(times[True]), _median(untraced)
        metrics["bench.op_s_traced_p50"] = traced_p50
        metrics["bench.op_s_untraced_p50"] = untraced_p50
        metrics["bench.trace_overhead_s"] = traced_p50 - untraced_p50
        record["self_s_per_op_by_layer"] = by_layer
        record["op_s_traced_mean"] = statistics.mean(times[True])
        record["op_s_untraced_mean"] = statistics.mean(untraced)
        record["program_self_s_per_op"] = sum(v for k, v in by_layer.items() if k != "bench")
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


def make_reference() -> int:
    """Rewrite the stored reference outputs for DEFAULT_SEED from the current program."""
    import checks
    from workloads import DEFAULT_SEED, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, factory in WORKLOADS.items():
        workload = factory()
        workdir = ROOT / ".bench_work" / f"reference-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workload.setup(DEFAULT_SEED, workdir)
            workload.prepare_checks()
            outputs = []
            for point in range(workload.points):
                out = workload.output(point, workload.run(point))
                found = checks.check(out, None, None)
                if found:
                    print(f"{name} point {point}: {found}", file=sys.stderr)
                    return 1
                outputs.append(out)
            checks.save_reference(REFERENCE_DIR / f"{name}.npz", outputs)
            print(f"wrote reference for {name} ({len(outputs)} points)")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


def smoke() -> int:
    """Run every workload of BENCHMARK.json for one op (two when traced) and check the result line.

    Every end-to-end metric must appear with its unit untraced, every per-layer
    metric traced, the run must be correct and no op may fail.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import DEFAULT_SEED

    bad = 0
    for wl in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(SCRIPT), "--workload", wl["name"],
                 "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            errors = []
            if proc.returncode != 0:
                errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    errors.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True or result.get("failed") != 0:
                    errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
                metrics = result.get("metrics", {})
                for metric in spec[section]:
                    got = metrics.get(metric["name"])
                    if got is None or got.get("unit") != metric["unit"]:
                        errors.append(f"{metric['name']}: expected unit {metric['unit']}, got {got}")
                    elif not isinstance(got.get("value"), (int, float)):
                        errors.append(f"{metric['name']}: value {got.get('value')!r}")
            print(f"smoke {wl['name']} trace={trace}: {'ok' if not errors else errors}")
            bad += bool(errors)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "metok" / "__init__.py").is_file():
        print(f"error: no metok sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.make_reference:
        return make_reference()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seed is None:
        parser.error(f"--workload (one of {sorted(WORKLOADS)}) and --seed are required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
