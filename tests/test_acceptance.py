"""Acceptance suite: one test per criterion, each printing a PASS line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from metok import pipeline
from metok.accounting import analytic_trace, baseline_trace, reduction_report
from metok.cli import main
from metok.data_io import FrameEmbeddings, RunConfig, config_with, gen_synthetic
from metok.kernels import Rng64
from metok.pipeline import run_simulation
from metok.schedule import PruneSchedule, retention_ratio, select_at_boundary
from metok.toy_llm import (
    apply_kv_policy,
    decode,
    init_model,
    prefill,
)
from metok.vision import (
    _stride_plan,
    adaptive_pool,
    segment_events,
    select_keys,
    score_relevance,
)
from tests.test_toy_llm import make_stream, make_text, reference_decode

GOLDEN_CRITERION_8 = Path(__file__).parent / "data" / "criterion_8"


def report(name, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_schedule_exactness():
    t0 = time.perf_counter()
    sched = PruneSchedule(l1=3, l2=10, l3=19, r=0.55, alpha=0.5, total_layers=28)
    key_expect = {}
    nonkey_expect = {}
    for layer in range(28):
        if layer < 3:
            key_expect[layer], nonkey_expect[layer] = 1.0, 1.0
        elif layer < 10:
            key_expect[layer], nonkey_expect[layer] = 0.55, 0.5 * 0.55
        elif layer < 19:
            key_expect[layer], nonkey_expect[layer] = 0.55 * 0.55, 0.0
        else:
            key_expect[layer], nonkey_expect[layer] = 0.0, 0.0
    for layer in range(28):
        assert retention_ratio(layer, "key", sched) == key_expect[layer]
        assert retention_ratio(layer, "non_key", sched) == nonkey_expect[layer]
    # the tier values are exactly the substituted constants
    assert sorted(set(key_expect.values())) == [0.0, 0.55 * 0.55, 0.55, 1.0]
    assert abs(0.55 * 0.55 - 0.3025) < 1e-15
    assert sorted(set(nonkey_expect.values())) == [0.0, 0.275, 1.0]
    report("1 (schedule exactness)", t0, 1.0)


def test_criterion_2_segmentation_oracle():
    t0 = time.perf_counter()
    rng = Rng64(20240601)
    for _ in range(1000):
        t = 2 + rng.next_raw() % 63
        k = 1 + rng.next_raw() % t
        # small vector pool -> repeated adjacent pairs -> bitwise-duplicated sims
        pool = [rng.next_unit_array(4) for _ in range(2 + rng.next_raw() % 3)]
        choice = 0
        rows = []
        for _ in range(t):
            choice = (choice + 1 + rng.next_raw() % (len(pool) - 1)) % len(pool)
            rows.append(pool[choice])
        v = FrameEmbeddings(tokens=np.stack(rows)[:, None, :], grid_h=1, grid_w=1)
        means = v.tokens.mean(axis=1)
        sims = [
            max(-1.0, min(1.0, float(means[i] @ means[i + 1])
                / float(np.linalg.norm(means[i]) * np.linalg.norm(means[i + 1]))))
            for i in range(t - 1)
        ]
        order = sorted(range(t - 1), key=lambda i: (sims[i], i))
        cuts = sorted(order[: k - 1])
        starts = [0] + [c + 1 for c in cuts]
        stops = [c + 1 for c in cuts] + [t]
        want = list(zip(starts, stops))
        got = [(e.start, e.stop) for e in segment_events(v, k).events]
        assert got == want
    report("2 (segmentation oracle, 1000 cases)", t0, 10.0)


def test_criterion_3_token_count_closed_form():
    t0 = time.perf_counter()
    rng = Rng64(333)
    for _ in range(200):
        t = 1 + rng.next_raw() % 12
        h = 1 + rng.next_raw() % 8
        w = 1 + rng.next_raw() % 8
        k = 1 + rng.next_raw() % t
        s1 = 1 + rng.next_raw() % 4
        s2 = s1 + rng.next_raw() % 4
        alpha = (1 + rng.next_raw() % 20) / 20
        beta = (1 + rng.next_raw() % 20) / 20
        emb, text = gen_synthetic(
            t, h, w, 6, seed=rng.next_raw() % 10**9,
            num_segments=1 + rng.next_raw() % t,
        )
        part = select_keys(score_relevance(text, segment_events(emb, k)), alpha, beta)
        stream = adaptive_pool(emb, _stride_plan(emb, part, s1, s2, alpha))
        # independent oracle: rebuild the four-way stride rule from the flags,
        # then apply the closed form
        wide1 = max(1, int(math.floor(s1 / alpha + 0.5)))
        wide2 = max(1, int(math.floor(s2 / alpha + 0.5)))
        want = 0
        for j, ev in enumerate(part.events):
            for i in ev:
                if part.key_event[j]:
                    stride = s1 if part.key_frame[i] else s2
                else:
                    stride = wide1 if part.key_frame[i] else wide2
                want += math.ceil(h / stride) * math.ceil(w / stride)
        assert len(stream) == want
    report("3 (token-count closed form, 200 configs)", t0, 10.0)


def test_criterion_4_softmax_exclusion_identity():
    t0 = time.perf_counter()
    rng = Rng64(444)
    for run in range(100):
        layers = 12
        cfg = RunConfig(layers=layers, heads=4, d_model=64, seed=rng.next_raw() % 10**9)
        n_key = 8 + rng.next_raw() % 40
        n_nonkey = rng.next_raw() % 24
        m = 2 + rng.next_raw() % 6
        l1 = rng.next_raw() % (layers + 1)
        model = init_model(cfg)
        stream = make_stream(n_key, n_nonkey, 16, seed=cfg.seed + 1)
        sched = PruneSchedule(
            l1=max(1, l1), l2=max(1, l1) + 3, l3=max(1, l1) + 6,
            r=0.5, alpha=0.5, total_layers=layers, n_key=n_key, n_nonkey=n_nonkey,
        )
        res = prefill(model, stream, sched, make_text(m, 16, seed=cfg.seed + 2), room=3)
        drop = sched.l1
        out_drop = decode(model, apply_kv_policy(res.cache, drop), 4, res.final_logits)
        out_mask = reference_decode(model, res.cache, 4, res.final_logits, mask_from=drop)
        assert np.array_equal(out_drop.tokens, out_mask.tokens)
        diff = float(np.max(np.abs(out_drop.logits - out_mask.logits)))
        assert diff <= 1e-9, f"run {run}: logits diverged by {diff}"
    report("4 (softmax-exclusion identity, 100 runs)", t0, 60.0)


def test_criterion_5_bypass_equivalence():
    t0 = time.perf_counter()
    frames, text = gen_synthetic(10, 4, 4, 16, seed=55, num_segments=3, text_len=5)
    cfg = RunConfig(
        k=3, layers=8, heads=2, d_model=32, layer_boundaries=(2, 4, 6), seed=55,
        disable_stages=("vision", "prefill", "decode"),
    )
    result = run_simulation(frames, text, cfg, steps=6)
    assert np.array_equal(result.decode_output.tokens, result.baseline_decode_output.tokens)
    assert np.array_equal(result.decode_output.logits, result.baseline_decode_output.logits)
    rep = result.report.to_dict()
    for metric in ("flops", "kv_bytes"):
        assert rep[metric]["reduction_pct"] == 0.0
    # per-layer shapes agree exactly with the baseline run
    assert result.compressed.layer_lengths == result.baseline.layer_lengths
    assert result.compressed.cached_positions == result.baseline.cached_positions
    report("5 (bypass equivalence)", t0, 10.0)


def test_criterion_6_efficiency_desk_replica():
    t0 = time.perf_counter()
    # 28-layer, 128-frame regime with 144 tokens/frame entering the baseline
    # model (native uniform stride-2 pooling of the raw 24x24 encoder grid),
    # prompt length 64, and the published 7B hyperparameters
    cfg = RunConfig(
        k=13, alpha=0.5, beta=0.45, s1=2, s2=3, r=0.55,
        layer_boundaries=(3, 10, 19), layers=28, heads=28, d_model=3584,
        mlp_ratio=18944 / 3584, seed=1234, baseline_stride=2,
    )
    frames, text = gen_synthetic(128, 24, 24, 32, seed=1234, num_segments=13, text_len=64)
    result = run_simulation(frames, text, cfg, steps=64, analytic=True)
    assert result.baseline.layer_lengths[0] == 128 * 144 + 64
    flops_red = result.report.flops_reduction_pct
    kv_red = result.report.kv_reduction_pct
    assert 80.6 - 10.0 <= flops_red <= 80.6 + 10.0, f"FLOPs reduction {flops_red:.2f}%"
    assert 93.5 - 5.0 <= kv_red <= 93.5 + 5.0, f"KV reduction {kv_red:.2f}%"
    print(f"\n  replica: FLOPs reduction {flops_red:.2f}% (target 80.6 +/- 10), "
          f"KV reduction {kv_red:.2f}% (target 93.5 +/- 5)")
    report("6 (efficiency desk replica)", t0, 5.0)


def test_calibrated_replica_point_reproduces_the_abstract_numbers():
    # criterion 6's replica with s1=s2=2, alpha=0.4, r=0.8: the second row of
    # the README table, within 0.5 points of both published reductions
    cfg = RunConfig(
        k=13, alpha=0.4, beta=0.45, s1=2, s2=2, r=0.8,
        layer_boundaries=(3, 10, 19), layers=28, heads=28, d_model=3584,
        mlp_ratio=18944 / 3584, seed=1234, baseline_stride=2,
    )
    frames, text = gen_synthetic(128, 24, 24, 32, seed=1234, num_segments=13, text_len=64)
    rep = run_simulation(frames, text, cfg, steps=64, analytic=True).report
    assert abs(rep.flops_reduction_pct - 80.6) <= 0.5, f"FLOPs reduction {rep.flops_reduction_pct}"
    assert abs(rep.kv_reduction_pct - 93.5) <= 0.5, f"KV reduction {rep.kv_reduction_pct}"


def test_criterion_7_nesting_and_monotonicity():
    t0 = time.perf_counter()
    rng = Rng64(777)
    # keep-set nesting under random schedules and scores
    for _ in range(500):
        origin = 1 + rng.next_raw() % 50
        scores = np.round(rng.next_unit_array(origin) * 8) / 8
        ids = np.arange(origin)
        r1 = (1 + rng.next_raw() % 1000) / 1000
        r2 = r1 * ((1 + rng.next_raw() % 1000) / 1000)
        outer = select_at_boundary(scores, ids, origin, r1)
        mask = np.isin(ids, outer)
        inner = select_at_boundary(scores[mask], ids[mask], origin, r2)
        assert set(inner.tolist()) <= set(outer.tolist())
    # retention is non-increasing in the layer index for both groups
    for _ in range(500):
        layers = 4 + rng.next_raw() % 28
        l1 = rng.next_raw() % (layers - 2)
        l2 = l1 + 1 + rng.next_raw() % (layers - l1 - 1)
        l3 = l2 + 1 + rng.next_raw() % 8
        s = PruneSchedule(
            l1=l1, l2=l2, l3=l3,
            r=(1 + rng.next_raw() % 1000) / 1000,
            alpha=(1 + rng.next_raw() % 1000) / 1000,
            total_layers=layers,
        )
        for group in ("key", "non_key"):
            ratios = [retention_ratio(l, group, s) for l in range(layers)]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    # FLOPs reduction is monotone (non-decreasing) as r decreases
    for _ in range(500):
        layers = 6 + rng.next_raw() % 10
        l1 = rng.next_raw() % (layers - 2)
        l2 = l1 + 1 + rng.next_raw() % (layers - l1 - 1)
        l3 = l2 + 1 + rng.next_raw() % 4
        cfg = RunConfig(
            layers=layers, heads=2, d_model=32, layer_boundaries=(l1, l2, l3),
            alpha=(1 + rng.next_raw() % 10) / 10,
        )
        n_key = 1 + rng.next_raw() % 200
        n_nonkey = rng.next_raw() % 100
        m = 1 + rng.next_raw() % 20
        steps = rng.next_raw() % 8
        base = baseline_trace(cfg, n_key + n_nonkey, m, steps)
        r_hi = (2 + rng.next_raw() % 999) / 1000
        r_lo = r_hi * (rng.next_raw() % 1000) / 1000
        r_lo = max(r_lo, 1 / 1000)
        red = {}
        for r in (r_hi, r_lo):
            comp = analytic_trace(config_with(cfg, r=r), n_key, n_nonkey, m, steps)
            red[r] = reduction_report(base, comp).flops_reduction_pct
        assert red[r_lo] >= red[r_hi]
    report("7 (nesting and monotonicity, 3x500 cases)", t0, 30.0)


def criterion_8_io(tmp_path, seed=11, events=4):
    """Criterion 8's config and the inputs of `gen --seed SEED --frames 16 --grid 4x4 --dim 16
    --events EVENTS` (criterion 8's own by default) on disk; returns their CLI arguments."""
    data = tmp_path / "data"
    assert main(["gen", "--seed", str(seed), "--frames", "16", "--grid", "4x4",
                 "--dim", "16", "--events", str(events), "--out", str(data)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "k": 4, "layers": 8, "heads": 2, "d_model": 32, "layer_boundaries": [2, 4, 6],
    }))
    return ["--config", str(cfg_path), "--input", str(data / "video.mebf"),
            "--text", str(data / "text.mebf")]


def simulate_criterion_8(tmp_path, runs):
    """Criterion 8's inputs, then one toy simulate per run name; returns the output dirs."""
    io_args = criterion_8_io(tmp_path)
    outs = []
    for name in runs:
        out = tmp_path / name
        assert main(["simulate", *io_args, "--out", str(out), "--steps", "5"]) == 0
        outs.append(out)
    return outs


def test_criterion_8_simulate_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = simulate_criterion_8(tmp_path, ("run1", "run2"))
    for artifact in ("report.json", "trace.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
    # manifests agree on everything but the echoed output location
    manifests = [json.loads((o / "manifest.json").read_text()) for o in outs]
    for key in ("tool", "version", "seed", "config", "inputs", "artifacts"):
        assert manifests[0][key] == manifests[1][key]
    report("8 (simulate determinism)", t0, 30.0)


def test_criterion_8_artifacts_match_golden(tmp_path):
    """A pure refactor leaves the criterion-8 report.json and trace.json byte-identical.

    The golden trace.json has no logits_digest fields, because BLAS kernels
    differ by platform in the last bits of the logits. A change that alters
    either artifact on purpose rewrites both files from this fixture and says
    so in CHANGES.md.
    """
    (out,) = simulate_criterion_8(tmp_path, ("run",))
    assert (out / "report.json").read_bytes() == (GOLDEN_CRITERION_8 / "report.json").read_bytes()
    trace = json.loads((out / "trace.json").read_text())
    for run in ("decode", "baseline_decode"):
        del trace[run]["logits_digest"]
    want = (GOLDEN_CRITERION_8 / "trace.json").read_text()
    assert json.dumps(trace, indent=2, sort_keys=True) + "\n" == want


def test_criterion_8_compress_and_sweep_match_golden(tmp_path, monkeypatch):
    """compress's stream_stats.json, in both frame_reduce modes, and a sweep's summary.csv
    and point reports.

    None of them depends on logits, so the goldens hold on every platform. A
    sweep prices every point from its plan and never reaches the toy model.
    The flatten golden comes from inputs on which flatten with max event scores
    cuts differently from every other pair of modes, so it shows that both
    flags reached the vision stage.
    """
    def no_toy_model(cfg):
        raise AssertionError("a sweep built the toy model")

    monkeypatch.setattr(pipeline, "init_model", no_toy_model)
    io_args = criterion_8_io(tmp_path)
    sweep = ["sweep", *io_args, "--steps", "5",
             "--param", "r=0.3,0.55", "--param", "alpha=0.4,0.8"]
    assert main(["compress", *io_args, "--out", str(tmp_path / "compress")]) == 0
    assert main([*sweep, "--out", str(tmp_path / "sweep")]) == 0
    flatten_io = criterion_8_io(tmp_path / "flatten", seed=1, events=2)
    modes = {"compress_flatten": ("flatten", "max"), "mean_mean": ("mean", "mean"),
             "flatten_mean": ("flatten", "mean"), "mean_max": ("mean", "max")}
    for out, (reduce, score) in modes.items():
        assert main(["compress", *flatten_io, "--out", str(tmp_path / out),
                     "--frame-reduce", reduce, "--event-score", score]) == 0
    flatten_golden = (GOLDEN_CRITERION_8 / "compress_flatten" / "stream_stats.json").read_bytes()
    for other in ("mean_mean", "flatten_mean", "mean_max"):
        assert (tmp_path / other / "stream_stats.json").read_bytes() != flatten_golden
    for out in ("compress", "compress_flatten", "sweep"):
        golden = GOLDEN_CRITERION_8 / out
        want = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
        got = sorted(p.relative_to(tmp_path / out)
                     for p in (tmp_path / out).rglob("*")
                     if p.is_file() and p.name != "manifest.json")
        assert got == want
        for rel in want:
            assert (tmp_path / out / rel).read_bytes() == (golden / rel).read_bytes(), (out, rel)
