import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metok.accounting import (
    InferenceTrace,
    analytic_trace,
    baseline_trace,
    kv_bytes,
    layer_flops,
    pipeline_flops,
    reduction_report,
)
from metok.data_io import RunConfig, config_with, gen_synthetic, read_embeddings, write_embeddings
from metok.kernels import Rng64
from metok import pipeline
from metok.pipeline import run_simulation
from metok.schedule import PruneSchedule, kv_drop_layer
from metok.toy_llm import apply_kv_policy, init_model, prefill
from metok.vision import plan_vision_stage
from tests.test_toy_llm import make_stream, make_text
from tests.test_vision import STAGE_SUBSETS, UNIT_RATIOS


def trace(lengths, cached=None, steps=0, d=8, rho=4.0):
    return InferenceTrace(
        layer_lengths=lengths,
        cached_positions=cached if cached is not None else lengths,
        decode_steps=steps,
        d_model=d,
        mlp_ratio=rho,
    )


class TestLayerFlops:
    def test_zero_length(self):
        assert layer_flops(0, 64, 4.0) == 0

    def test_hand_value(self):
        # 24*10*64 + 4*100*8
        assert layer_flops(10, 8, 4.0) == 18560

    def test_superlinear(self):
        for n in (1, 3, 17, 200):
            assert layer_flops(2 * n, 16, 4.0) > 2 * layer_flops(n, 16, 4.0)


class TestPipelineFlops:
    def test_uniform_no_decode(self):
        t = trace([12] * 5)
        assert pipeline_flops(t) == 5 * layer_flops(12, 8, 4.0)

    def test_tiered_hand_sum(self):
        lengths = [146] * 3 + [72] * 7 + [37] * 9 + [6]
        t = trace(lengths, d=32)
        want = sum((8 + 16) * n * 32 * 32 + 4 * n * n * 32 for n in lengths)
        assert pipeline_flops(t) == want

    def test_decode_cost_grows_with_cache(self):
        small = trace([10, 10], cached=[4, 4], steps=5)
        large = trace([10, 10], cached=[9, 9], steps=5)
        assert pipeline_flops(large) > pipeline_flops(small)

    def test_decode_hand_sum(self):
        t = trace([7, 7], cached=[3, 5], steps=2, d=8, rho=4.0)
        prefill_part = 2 * layer_flops(7, 8, 4.0)
        decode_part = sum(
            24 * 64 + 4 * (c + s + 1) * 8 for s in range(2) for c in (3, 5)
        )
        assert pipeline_flops(t) == prefill_part + decode_part


def loop_pipeline_flops(t):
    """pipeline_flops as a nested loop adding one step-and-layer term at a time: its bits."""
    d, rho = t.d_model, t.mlp_ratio
    total = sum(layer_flops(n, d, rho) for n in t.layer_lengths)
    proj = (8 + 4 * rho) * d * d
    for step in range(t.decode_steps):
        for cached in t.cached_positions:
            total += proj + 4 * (cached + step + 1) * d
    return total


class TestPipelineFlopsBits:
    """The vectorised decode sum keeps the nested loop's float64 bits, compared with ==."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_equals_the_nested_loop(self, data):
        layers = data.draw(st.integers(1, 40))
        counts = st.lists(st.integers(0, 10**5), min_size=layers, max_size=layers)
        t = InferenceTrace(
            layer_lengths=data.draw(counts),
            cached_positions=data.draw(counts),
            decode_steps=data.draw(st.integers(0, 300)),
            d_model=data.draw(st.sampled_from([8, 64, 3584, 2**45])),  # 2**45: past int64
            mlp_ratio=data.draw(st.sampled_from([4.0, 18944 / 3584])),
        )
        assert pipeline_flops(t) == loop_pipeline_flops(t)

    def test_a_trace_whose_total_shows_the_order_of_its_terms(self):
        t = InferenceTrace(layer_lengths=[10491, 1730, 3625], cached_positions=[1962, 59885, 71202],
                           decode_steps=6, d_model=64, mlp_ratio=18944 / 3584)
        proj = (8 + 4 * t.mlp_ratio) * 64 * 64
        layer_first = sum(layer_flops(n, 64, t.mlp_ratio) for n in t.layer_lengths)
        for cached in t.cached_positions:
            for step in range(t.decode_steps):
                layer_first += proj + 4 * (cached + step + 1) * 64
        assert layer_first != loop_pipeline_flops(t)
        assert pipeline_flops(t) == loop_pipeline_flops(t)

    def test_replica_points_equal_the_nested_loop(self):
        # criterion 6's replica and 64 decoded tokens, at 27 points over r, alpha and beta
        cfg = RunConfig(
            k=13, alpha=0.5, beta=0.45, s1=2, s2=3, r=0.55,
            layer_boundaries=(3, 10, 19), layers=28, heads=28, d_model=3584,
            mlp_ratio=18944 / 3584, seed=1234, baseline_stride=2,
        )
        frames, text = gen_synthetic(128, 24, 24, 32, seed=1234, num_segments=13, text_len=64)
        for r, alpha, beta in itertools.product((0.3, 0.55, 0.7), (0.4, 0.5, 0.8), (0.3, 0.45, 0.6)):
            point = config_with(cfg, r=r, alpha=alpha, beta=beta)
            n_key, n_nonkey = plan_vision_stage(frames, text, point).group_counts()
            for t in (analytic_trace(point, n_key, n_nonkey, 64, 63),
                      baseline_trace(point, 128 * 12 * 12, 64, 63)):
                got = pipeline_flops(t)
                assert type(got) is float
                assert got == loop_pipeline_flops(t)


class TestKvBytes:
    def test_hand_case(self):
        t = trace([110, 110, 10, 10], cached=[110, 110, 10, 10], d=8)
        assert kv_bytes(t) == 2 * 8 * 2 * 240

    def test_zero_layers(self):
        assert kv_bytes(trace([])) == 0

    def test_policy_on_never_exceeds_off(self):
        cfg = RunConfig(layers=6, heads=2, d_model=16, layer_boundaries=(2, 4, 5))
        on = analytic_trace(cfg, 40, 20, 5, 0)
        off = analytic_trace(config_with(cfg, disable_stages=("decode",)), 40, 20, 5, 0)
        assert kv_bytes(on) <= kv_bytes(off)


class TestReductionReport:
    def test_identical_traces_zero_pct(self):
        t = trace([12] * 4, steps=3)
        rep = reduction_report(t, t)
        d = rep.to_dict()
        assert d["flops"]["reduction_pct"] == 0.0
        assert d["kv_bytes"]["reduction_pct"] == 0.0

    def test_schema_keys(self):
        rep = reduction_report(trace([5]), trace([3]), config={"seed": 0})
        d = rep.to_dict()
        assert sorted(d) == ["config", "flops", "kv_bytes"]
        for metric in ("flops", "kv_bytes"):
            assert sorted(d[metric]) == ["baseline", "compressed", "reduction_pct"]

    def test_monotone_in_r(self):
        cfg = RunConfig(layers=12, heads=2, d_model=32, layer_boundaries=(3, 6, 9))
        base = baseline_trace(cfg, 300, 10, 4)
        prev = -1.0
        for r in (0.9, 0.7, 0.5, 0.3, 0.1):
            comp = analytic_trace(config_with(cfg, r=r), 200, 100, 10, 4)
            red = reduction_report(base, comp).flops_reduction_pct
            assert red >= prev
            prev = red


class TestAnalyticMatchesMeasured:
    def test_lengths_and_cache_counts(self):
        rng = Rng64(17)
        for _ in range(10):
            layers = 4 + rng.next_raw() % 6
            l1 = rng.next_raw() % (layers - 2)
            l2 = l1 + 1 + rng.next_raw() % (layers - l1 - 1)
            l3 = l2 + 1 + rng.next_raw() % 4
            cfg = RunConfig(
                layers=layers, heads=2, d_model=16,
                layer_boundaries=(l1, l2, l3),
                r=(1 + rng.next_raw() % 100) / 100,
                alpha=(1 + rng.next_raw() % 100) / 100,
                seed=rng.next_raw() % 1000,
            )
            n_key = 1 + rng.next_raw() % 30
            n_nonkey = rng.next_raw() % 20
            m = 1 + rng.next_raw() % 6
            model = init_model(cfg)
            stream = make_stream(n_key, n_nonkey, 8, seed=cfg.seed)
            sched = PruneSchedule.from_config(cfg, n_key, n_nonkey)
            res = prefill(model, stream, sched, make_text(m, 8, seed=cfg.seed + 1))
            expected = analytic_trace(cfg, n_key, n_nonkey, m, 0)
            assert res.layer_lengths == expected.layer_lengths
            masked = apply_kv_policy(res.cache, kv_drop_layer(cfg))
            assert masked.entry_counts() == expected.cached_positions

    def test_cached_positions_count_entries_not_spare_rows(self, monkeypatch):
        # a toy simulate's caches carry steps - 1 spare rows a layer, which no count includes
        caches = []

        def recording(cache, drop_layer):
            caches.append(apply_kv_policy(cache, drop_layer))
            return caches[-1]

        monkeypatch.setattr(pipeline, "apply_kv_policy", recording)
        frames, text = gen_synthetic(12, 4, 4, 16, seed=9, num_segments=3)
        cfg = RunConfig(k=3, layers=6, heads=2, d_model=16, layer_boundaries=(1, 3, 5))
        steps = 6
        toy = run_simulation(frames, text, cfg, steps=steps)
        priced = run_simulation(frames, text, cfg, steps=steps, analytic=True)
        assert [cache.room for cache in caches] == [steps - 1] * 2
        for cache, run in zip(caches, ("compressed", "baseline")):
            counts = cache.entry_counts()
            assert [len(k) for k in cache.k] == [c + steps - 1 for c in counts]
            assert getattr(toy, run).cached_positions == counts
            assert counts == getattr(priced, run).cached_positions
        assert caches[0].entry_counts() != caches[1].entry_counts()

    def test_kv_bytes_match_stored_entries(self):
        cfg = RunConfig(layers=5, heads=2, d_model=16, layer_boundaries=(1, 3, 4), seed=3)
        model = init_model(cfg)
        stream = make_stream(20, 12, 8, seed=4)
        sched = PruneSchedule.from_config(cfg, 20, 12)
        res = prefill(model, stream, sched, make_text(4, 8, seed=5))
        masked = apply_kv_policy(res.cache, kv_drop_layer(cfg))
        stored = sum(masked.entry_counts())
        t = analytic_trace(cfg, 20, 12, 4, 0)
        assert kv_bytes(t) == 2 * cfg.d_model * 2 * stored


@pytest.fixture(scope="module")
def criterion_8_inputs(tmp_path_factory):
    """The criterion-8 video and prompt, after their MEBF round trip."""
    out = tmp_path_factory.mktemp("criterion_8")
    paths = []
    for name, obj in zip(("video.mebf", "text.mebf"),
                         gen_synthetic(16, 4, 4, 16, seed=11, num_segments=4)):
        write_embeddings(obj, out / name)
        paths.append(out / name)
    return [read_embeddings(p) for p in paths]


class TestStageToggleMatrix:
    """Every subset of disable_stages, each with decode on and off."""

    @pytest.mark.parametrize("others", [(), ("vision",), ("prefill",), ("vision", "prefill")])
    def test_each_toggle_moves_only_its_stage(self, criterion_8_inputs, others):
        frames, text = criterion_8_inputs
        lengths = {}
        for decode in (True, False):
            cfg = RunConfig(k=4, layers=8, heads=2, d_model=32, layer_boundaries=(2, 4, 6),
                            disable_stages=others + (() if decode else ("decode",)))
            toy = run_simulation(frames, text, cfg, steps=5)
            priced = run_simulation(frames, text, cfg, steps=5, analytic=True)
            for run in ("compressed", "baseline"):
                a, b = getattr(toy, run), getattr(priced, run)
                assert (a.layer_lengths, a.cached_positions) == (b.layer_lengths,
                                                                 b.cached_positions)
            assert toy.report.to_dict() == priced.report.to_dict()
            got = toy.compressed
            if decode:  # from l1 = 2 on, only the prompt's text stays cached
                assert got.cached_positions[2:] == [text.num_tokens] * 6
            else:
                assert got.cached_positions == got.layer_lengths
            lengths[decode] = got.layer_lengths
        assert lengths[True] == lengths[False]


@st.composite
def small_runs(draw):
    """Small videos and configs, boundaries anywhere from layer 0 to past the stack."""
    t, h, w = draw(st.integers(1, 12)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    layers = draw(st.integers(1, 8))
    l1 = draw(st.integers(0, layers + 1))
    l2 = draw(st.integers(l1 + 1, layers + 2))
    s1 = draw(st.integers(1, 4))
    cfg = RunConfig(
        k=draw(st.integers(1, t)), alpha=draw(UNIT_RATIOS), beta=draw(UNIT_RATIOS),
        s1=s1, s2=draw(st.integers(s1, 5)), r=draw(UNIT_RATIOS),
        layer_boundaries=(l1, l2, draw(st.integers(l2 + 1, layers + 3))), layers=layers,
        heads=draw(st.sampled_from((1, 2, 4))), d_model=8, seed=draw(st.integers(0, 10**6)),
        disable_stages=draw(st.sampled_from(STAGE_SUBSETS)),
        baseline_stride=draw(st.integers(1, 3)),
    )
    frames, text = gen_synthetic(t, h, w, 6, seed=draw(st.integers(0, 10**6)),
                                 num_segments=draw(st.integers(1, t)),
                                 text_len=draw(st.integers(1, 5)))
    return frames, text, cfg, draw(st.integers(0, 4))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(run=small_runs())
def test_toy_run_matches_its_analytic_price(run):
    """The toy model's traces and report equal the analytic ones across the config space."""
    frames, text, cfg, steps = run
    toy = run_simulation(frames, text, cfg, steps=steps)
    priced = run_simulation(frames, text, cfg, steps=steps, analytic=True)
    for name in ("baseline", "compressed"):
        assert toy.trace_dict()[name] == priced.trace_dict()[name]
    assert toy.report.to_dict() == priced.report.to_dict()
