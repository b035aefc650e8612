import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from metok import cli, data_io, vision
from metok.cli import main
from tests.test_acceptance import GOLDEN_CRITERION_8, criterion_8_io


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    rc = main(["gen", "--seed", "7", "--frames", "12", "--grid", "4x4", "--dim", "16",
               "--events", "3", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"k": 3, "layers": 8, "heads": 2, "d_model": 32,
                             "layer_boundaries": [2, 4, 6]}))
    return p


def run_sim(data_dir, config_path, out, extra=()):
    return main(["simulate", "--config", str(config_path),
                 "--input", str(data_dir / "video.mebf"),
                 "--text", str(data_dir / "text.mebf"),
                 "--out", str(out), "--steps", "4", *extra])


class TestGen:
    def test_byte_identical_across_runs(self, tmp_path):
        args = ["gen", "--seed", "7", "--frames", "30", "--grid", "4x4",
                "--dim", "32", "--events", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("video.mebf", "text.mebf"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_grid_is_usage_error(self, tmp_path):
        rc = main(["gen", "--seed", "1", "--frames", "4", "--grid", "4by4",
                   "--dim", "8", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_more_events_than_frames_is_usage_error(self, tmp_path):
        rc = main(["gen", "--seed", "1", "--frames", "3", "--grid", "2x2", "--dim", "8",
                   "--events", "5", "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("frames, grid, text_len", [
        (1, "1x1", 1 << 20),        # text: d + M one over its budget
        (1, "4097x4096", 8),        # one frame's h*w*d over its budget
        (129, "4096x4096", 8),      # each frame at its budget, T*h*w*d over the total
    ], ids=["text", "frame", "total"])
    def test_size_the_reader_would_refuse_is_usage_error(self, tmp_path, frames, grid, text_len):
        out = tmp_path / "big"
        tracemalloc.start()
        try:
            rc = main(["gen", "--seed", "1", "--frames", str(frames), "--grid", grid, "--dim", "1",
                       "--text-len", str(text_len), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert not out.exists()
        assert peak < 1 << 20


class TestCompress:
    def test_stats_artifact(self, data_dir, config_path, tmp_path):
        out = tmp_path / "comp"
        rc = main(["compress", "--config", str(config_path),
                   "--input", str(data_dir / "video.mebf"),
                   "--text", str(data_dir / "text.mebf"), "--out", str(out)])
        assert rc == 0
        stats = json.loads((out / "stream_stats.json").read_text())
        assert stats["raw_tokens"] == 12 * 16
        assert stats["retained_tokens"] < stats["raw_tokens"]
        assert stats["num_events"] == 3


class TestSimulate:
    def test_disabled_stages_report_zero(self, data_dir, tmp_path):
        cfg = tmp_path / "off.json"
        cfg.write_text(json.dumps({
            "k": 3, "layers": 8, "heads": 2, "d_model": 32,
            "layer_boundaries": [2, 4, 6],
            "disable_stages": ["vision", "prefill", "decode"],
        }))
        out = tmp_path / "sim_off"
        assert run_sim(data_dir, cfg, out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["flops"]["reduction_pct"] == 0.0
        assert rep["kv_bytes"]["reduction_pct"] == 0.0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["decode"]["tokens"] == trace["baseline_decode"]["tokens"]
        assert trace["decode"]["logits_digest"] == trace["baseline_decode"]["logits_digest"]

    def test_deterministic_artifacts(self, data_dir, config_path, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        assert run_sim(data_dir, config_path, a) == 0
        assert run_sim(data_dir, config_path, b) == 0
        for name in ("report.json", "trace.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_analytic_mode(self, data_dir, config_path, tmp_path):
        out = tmp_path / "sim_an"
        assert run_sim(data_dir, config_path, out, extra=["--analytic"]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert "decode" not in trace
        rep = json.loads((out / "report.json").read_text())
        assert rep["flops"]["reduction_pct"] > 0

    def test_analytic_matches_toy_accounting(self, data_dir, config_path, tmp_path):
        toy, analytic = tmp_path / "toy", tmp_path / "an"
        assert run_sim(data_dir, config_path, toy) == 0
        assert run_sim(data_dir, config_path, analytic, extra=["--analytic"]) == 0
        rep_t = json.loads((toy / "report.json").read_text())
        rep_a = json.loads((analytic / "report.json").read_text())
        assert rep_t["flops"] == rep_a["flops"]
        assert rep_t["kv_bytes"] == rep_a["kv_bytes"]

    def test_manifest_digests_recomputable(self, data_dir, config_path, tmp_path):
        out = tmp_path / "sim_m"
        assert run_sim(data_dir, config_path, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "metok"
        for rel, digest in manifest["artifacts"].items():
            got = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert got == digest


    @pytest.mark.parametrize("fail_at", ["write", "rename", "gen"])
    def test_failed_write_keeps_previous_artifact(self, data_dir, config_path, tmp_path,
                                                  monkeypatch, fail_at):
        if fail_at == "gen":  # a gen of other data whose video.mebf write fails half-way
            out, target = data_dir, "video.mebf"
            run = lambda: main(["gen", "--seed", "8", "--frames", "12", "--grid", "4x4",
                                "--dim", "16", "--out", str(data_dir)])
        else:
            out, target = tmp_path / "sim", "trace.json"
            run = lambda: run_sim(data_dir, config_path, out)
            assert run() == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_open, real_replace = open, os.replace

        class HalfWriter:  # writes half of the payload, then fails like a full disk
            def __init__(self, path, mode):
                self.fh = real_open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        def failing_open(path, mode):  # only the target's temp file fails
            opener = HalfWriter if Path(path).name.startswith(f".{target}.") else real_open
            return opener(path, mode)

        def failing_replace(src, dst):
            if Path(dst).name == target:
                raise OSError("rename failed")
            real_replace(src, dst)

        if fail_at == "rename":
            monkeypatch.setattr(os, "replace", failing_replace)
        else:
            monkeypatch.setattr(data_io, "open", failing_open, raising=False)
        assert run() == 2
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestDiag:
    def test_attention_ratio_csv(self, data_dir, config_path, tmp_path):
        out = tmp_path / "diag"
        rc = main(["diag", "attention-ratio", "--config", str(config_path),
                   "--input", str(data_dir / "video.mebf"),
                   "--text", str(data_dir / "text.mebf"),
                   "--out", str(out), "--steps", "3"])
        assert rc == 0
        lines = (out / "attention_ratio.csv").read_text().strip().splitlines()
        assert lines[0] == "layer,visual_ratio,text_ratio"
        assert len(lines) == 1 + 8
        for line in lines[1 + 2:]:  # layers at and above l1=2 hold no visual cache
            _, vis, txt = line.split(",")
            assert float(vis) == 0.0
            assert float(txt) == 1.0


class TestSweep:
    def test_r_sweep_monotone(self, data_dir, config_path, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(config_path),
                   "--input", str(data_dir / "video.mebf"),
                   "--text", str(data_dir / "text.mebf"),
                   "--out", str(out), "--param", "r=0.3,0.55,0.7", "--analytic",
                   "--steps", "4"])
        assert rc == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        reductions = [float(line.split(",")[2]) for line in lines[1:]]
        assert reductions[0] > reductions[1] > reductions[2]
        for i in range(3):
            assert (out / f"point_{i:03d}" / "report.json").exists()

    def test_parallel_matches_serial(self, data_dir, config_path, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "ser", tmp_path / "par"
        args = ["sweep", "--config", str(config_path),
                "--input", str(data_dir / "video.mebf"),
                "--text", str(data_dir / "text.mebf"),
                "--param", "r=0.3,0.6", "--param", "alpha=0.4,0.8",
                "--analytic", "--steps", "4"]
        monkeypatch.setenv("METOK_THREADS", "1")
        assert main(args + ["--out", str(serial)]) == 0
        monkeypatch.setenv("METOK_THREADS", "4")
        assert main(args + ["--out", str(parallel)]) == 0
        assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()
        for i in range(4):
            assert ((serial / f"point_{i:03d}" / "report.json").read_bytes()
                    == (parallel / f"point_{i:03d}" / "report.json").read_bytes())

    def test_toy_sweep_matches_across_thread_counts(self, data_dir, config_path, tmp_path,
                                                    monkeypatch):
        # without --analytic every point runs the toy model, decode included, on its thread
        args = ["sweep", "--config", str(config_path),
                "--input", str(data_dir / "video.mebf"),
                "--text", str(data_dir / "text.mebf"),
                "--param", "r=0.3,0.6", "--param", "alpha=0.4,0.8", "--steps", "6"]
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("METOK_THREADS", threads)
            outs.append(tmp_path / f"threads_{threads}")
            assert main(args + ["--out", str(outs[-1])]) == 0
        names = ["summary.csv"] + [f"point_{i:03d}/report.json" for i in range(4)]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_invalid_point_fails_before_any_point_runs(self, data_dir, config_path, tmp_path):
        # s1=5 exceeds the config's s2=3, but the valid point s1=2 comes first
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(config_path),
                   "--input", str(data_dir / "video.mebf"),
                   "--text", str(data_dir / "text.mebf"),
                   "--out", str(out), "--param", "s1=2,5", "--analytic", "--steps", "4"])
        assert rc == 2
        assert not list(out.glob("point_*"))

    def test_unknown_param_is_usage_error(self, data_dir, config_path, tmp_path):
        rc = main(["sweep", "--config", str(config_path),
                   "--input", str(data_dir / "video.mebf"),
                   "--text", str(data_dir / "text.mebf"),
                   "--out", str(tmp_path / "x"), "--param", "bogus=1,2"])
        assert rc == 1

    def test_repeated_axis_is_usage_error(self, data_dir, config_path, tmp_path):
        # two r axes would name a value in summary.csv that the point never ran at
        out = tmp_path / "x"
        rc = main(["sweep", "--config", str(config_path),
                   "--input", str(data_dir / "video.mebf"),
                   "--text", str(data_dir / "text.mebf"),
                   "--out", str(out), "--param", "r=0.3", "--param", "r=0.7", "--analytic"])
        assert rc == 1
        assert not out.exists()

    def test_thread_count_must_be_an_integer(self, data_dir, config_path, tmp_path,
                                             monkeypatch):
        args = ["sweep", "--config", str(config_path),
                "--input", str(data_dir / "video.mebf"),
                "--text", str(data_dir / "text.mebf"),
                "--param", "r=0.3,0.7", "--analytic", "--steps", "4"]
        monkeypatch.setenv("METOK_THREADS", "two")
        assert main(args + ["--out", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x").exists()
        monkeypatch.setenv("METOK_THREADS", "0")  # below 1 still means one thread
        assert main(args + ["--out", str(tmp_path / "y")]) == 0


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["gen", "--seed", "1"]) == 1

    def test_bad_magic_input(self, config_path, tmp_path):
        bad = tmp_path / "bad.mebf"
        bad.write_bytes(b"XXXX" + bytes(30))
        rc = main(["compress", "--config", str(config_path),
                   "--input", str(bad), "--text", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_config_range(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"alpha": 1.5}')
        rc = run_sim(data_dir, cfg, tmp_path / "o")
        assert rc == 2

    def test_missing_file(self, config_path, tmp_path):
        rc = main(["compress", "--config", str(config_path),
                   "--input", str(tmp_path / "nope.mebf"),
                   "--text", str(tmp_path / "nope.mebf"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_more_events_than_frames(self, data_dir, tmp_path):
        cfg = tmp_path / "k.json"
        cfg.write_text('{"k": 13}')  # the fixture video has 12 frames
        assert run_sim(data_dir, cfg, tmp_path / "o") == 2

    def test_embedding_dim_mismatch(self, data_dir, config_path, tmp_path):
        other = tmp_path / "other"
        assert main(["gen", "--seed", "7", "--frames", "12", "--grid", "4x4", "--dim", "8",
                     "--out", str(other)]) == 0
        rc = main(["compress", "--config", str(config_path),
                   "--input", str(data_dir / "video.mebf"), "--text", str(other / "text.mebf"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_zero_norm_frame(self, data_dir, config_path, tmp_path):
        video = data_io.read_embeddings(data_dir / "video.mebf")
        video.tokens[5] = 0.0
        data_io.write_embeddings(video, data_dir / "video.mebf")
        assert run_sim(data_dir, config_path, tmp_path / "o") == 2

    def test_internal_failure_is_not_a_data_error(self, data_dir, config_path, tmp_path,
                                                  monkeypatch):
        from metok import toy_llm

        def broken(*args, **kwargs):
            raise ValueError("schedule wants 9 tokens but only 4 survive")

        monkeypatch.setattr(toy_llm, "select_at_boundary", broken)
        with pytest.raises(ValueError, match="schedule wants"):
            run_sim(data_dir, config_path, tmp_path / "o")


@pytest.mark.parametrize("command, extra, fault, code", [
    (["compress"], [], "bad-config", 2),
    (["simulate"], [], "bad-config", 2),
    (["diag", "attention-ratio"], [], "bad-config", 2),
    (["diag", "attention-ratio"], ["--steps", "1"], None, 1),
    # the second point's k exceeds the fixture's 12 frames, after the first point ran
    (["sweep"], ["--param", "k=1,13", "--analytic"], None, 2),
    (["simulate"], ["--steps", "-1"], None, 1),
    (["sweep"], ["--steps", "-1", "--param", "r=0.3", "--analytic"], None, 1),
    (["simulate"], ["--analytic"], "missing-input", 2),
    (["simulate"], ["--analytic"], "non-finite", 2),
], ids=["compress-bad-config", "simulate-bad-config", "diag-bad-config", "diag-one-step",
        "sweep-k-above-frames", "simulate-negative-steps", "sweep-negative-steps",
        "simulate-missing-input", "simulate-non-finite"])
def test_failed_command_leaves_no_out_dir(data_dir, config_path, tmp_path, monkeypatch,
                                          command, extra, fault, code):
    class SlowSha256:  # 1 ms a chunk: the 12 KiB video alone is 770 chunks of 16 bytes
        updates = 0

        def __init__(self):
            self.digest = hashlib.sha256()

        def update(self, chunk):
            time.sleep(1e-3)
            SlowSha256.updates += 1
            self.digest.update(chunk)

    monkeypatch.setattr(cli, "hashlib", SimpleNamespace(sha256=SlowSha256))
    monkeypatch.setattr(cli, "_HASH_CHUNK", 16)
    video = data_dir / "video.mebf"
    if fault == "bad-config":
        config_path.write_text('{"alpha": 1.5}')
    elif fault == "missing-input":
        video = tmp_path / "nope.mebf"
    elif fault == "non-finite":
        data = bytearray(video.read_bytes())
        data[-4:] = struct.pack("<f", np.nan)
        video.write_bytes(bytes(data))
    threads = threading.active_count()
    out = tmp_path / "o"
    rc = main([*command, "--config", str(config_path), "--input", str(video),
               "--text", str(data_dir / "text.mebf"), "--out", str(out), *extra])
    assert rc == code
    assert not out.exists()
    # the input hashing was stopped early, and its thread joined
    assert threading.active_count() == threads
    assert SlowSha256.updates < 400


def test_count_only_commands_pool_no_token(tmp_path, monkeypatch):
    """Analytic simulate and sweep and compress price from the vision plan alone."""
    def no_pooling(*args, **kwargs):
        raise AssertionError("avg_pool_2d called")

    monkeypatch.setattr(vision, "avg_pool_2d", no_pooling)
    io_args = criterion_8_io(tmp_path)
    for command, extra in (("simulate", ["--analytic"]), ("compress", []),
                           ("sweep", ["--analytic", "--param", "r=0.3,0.55",
                                      "--param", "alpha=0.4,0.8"])):
        steps = [] if command == "compress" else ["--steps", "5"]
        assert main([command, *io_args, "--out", str(tmp_path / command), *steps, *extra]) == 0
    # the analytic simulate prices exactly what the toy golden measured
    sim = tmp_path / "simulate"
    assert (sim / "report.json").read_bytes() == (GOLDEN_CRITERION_8 / "report.json").read_bytes()
    trace, want = (json.loads((d / "trace.json").read_text()) for d in (sim, GOLDEN_CRITERION_8))
    assert trace == {run: want[run] for run in ("baseline", "compressed")}
    for command in ("compress", "sweep"):
        golden = GOLDEN_CRITERION_8 / command
        for path in golden.rglob("*"):
            if path.is_file():
                rel = path.relative_to(golden)
                assert (tmp_path / command / rel).read_bytes() == path.read_bytes(), rel
    # the toy path still materialises the plan
    with pytest.raises(AssertionError, match="avg_pool_2d called"):
        main(["simulate", *io_args, "--out", str(tmp_path / "toy"), "--steps", "2"])


def test_sha256_reads_in_chunks(tmp_path):
    from metok.cli import _sha256

    p = tmp_path / "big.bin"
    p.write_bytes(bytes(range(256)) * (8 << 12))  # 8 MiB
    tracemalloc.start()
    try:
        digest = _sha256(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert digest == hashlib.sha256(p.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, extra", [
    (["compress"], []),
    (["simulate"], ["--analytic", "--steps", "5"]),
    (["diag", "attention-ratio"], ["--steps", "3"]),
    (["sweep"], ["--analytic", "--param", "r=0.3,0.55", "--steps", "5"]),
], ids=["compress", "simulate-analytic", "diag", "sweep-analytic"])
def test_manifest_input_digests_are_the_files_sha256(tmp_path, command, extra):
    io_args = criterion_8_io(tmp_path)
    threads = threading.active_count()
    out = tmp_path / "o"
    assert main([*command, *io_args, "--out", str(out), *extra]) == 0
    assert threading.active_count() == threads  # the hashing thread was joined
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    paths = {"input": io_args[io_args.index("--input") + 1],
             "text": io_args[io_args.index("--text") + 1]}
    assert inputs == {name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                      for name, p in paths.items()}


def test_inputs_are_hashed_off_the_main_thread(tmp_path, monkeypatch):
    io_args = criterion_8_io(tmp_path)
    on_main = {}

    def recording_sha256(path, stop=None):
        on_main[Path(path).name] = threading.current_thread() is threading.main_thread()
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    monkeypatch.setattr(cli, "_sha256", recording_sha256)
    assert main(["simulate", *io_args, "--out", str(tmp_path / "o"), "--analytic"]) == 0
    assert on_main == {"video.mebf": False, "text.mebf": False,
                       "report.json": True, "trace.json": True}


# What the metok console script loads before its first command, then the thread
# count the loaded OpenBLAS reports (None where it cannot be asked; the same
# probe as bench/run.py) and the BLAS variable as the process sees it.
_BLAS_PROBE = """
import ctypes, json, os, sys
if sys.argv[1:] == ["numpy-first"]:
    import numpy
import metok.cli

def blas_threads():
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

print(json.dumps({"threads": blas_threads(), "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.parametrize("preset, order, want_env", [
    (None, [], "1"),
    ("2", [], "2"),
    (None, ["numpy-first"], None),
], ids=["unset", "caller-sets-2", "numpy-loaded-first"])
def test_metok_entry_pins_blas_to_one_thread(preset, order, want_env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, *order], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    got = json.loads(proc.stdout)
    assert got["env"] == want_env  # a caller's setting, or numpy loaded first, is kept
    if want_env is not None:
        assert got["threads"] in (None, int(want_env))


@pytest.mark.parametrize("extra", [[], ["--analytic"], ["--frame-reduce", "flatten"]],
                         ids=["toy", "analytic", "flatten"])
def test_zero_norm_middle_frame_in_the_file(data_dir, config_path, tmp_path, extra):
    video = data_dir / "video.mebf"
    frame = 4 * 16 * 16  # 4x4 grid of dim-16 tokens, float32
    data = bytearray(video.read_bytes())
    data[22 + 6 * frame : 22 + 7 * frame] = bytes(frame)
    video.write_bytes(bytes(data))
    assert run_sim(data_dir, config_path, tmp_path / "o", extra) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", [[], ["--analytic"]], ids=["toy", "analytic"])
def test_mapped_and_in_memory_inputs_give_identical_artifacts(tmp_path, monkeypatch, extra):
    io_args = criterion_8_io(tmp_path)
    assert main(["simulate", *io_args, "--out", str(tmp_path / "mapped"), "--steps", "5",
                 *extra]) == 0

    def read_into_memory(path):
        record = data_io.read_embeddings(path)
        if isinstance(record, data_io.FrameEmbeddings):
            assert isinstance(record.tokens, np.memmap)
            record = data_io.FrameEmbeddings(tokens=np.array(record.tokens, dtype=np.float64),
                                             grid_h=record.grid_h, grid_w=record.grid_w)
            assert not isinstance(record.tokens, np.memmap)
        return record

    monkeypatch.setattr(cli, "read_embeddings", read_into_memory)
    assert main(["simulate", *io_args, "--out", str(tmp_path / "memory"), "--steps", "5",
                 *extra]) == 0
    for name in ("report.json", "trace.json"):
        assert (tmp_path / "mapped" / name).read_bytes() == (tmp_path / "memory" / name).read_bytes()
    mapped, memory = (json.loads((tmp_path / d / "manifest.json").read_text())
                      for d in ("mapped", "memory"))
    assert mapped["artifacts"] == memory["artifacts"]
