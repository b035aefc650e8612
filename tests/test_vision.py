import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metok import vision
from metok.data_io import (
    EVENT_SCORES,
    FRAME_REDUCES,
    STAGES,
    FrameEmbeddings,
    RunConfig,
    TextEmbedding,
    gen_synthetic,
)
from metok.kernels import Rng64, ZeroNormError, avg_pool_2d, ceil_scaled
from metok.pipeline import run_simulation
from metok.vision import (
    EventPartition,
    _stride_plan,
    adaptive_pool,
    plan_vision_stage,
    run_vision_stage,
    scaled_stride,
    score_relevance,
    segment_events,
    select_keys,
    uniform_stream,
)


def expected_token_count(grid_h, grid_w, strides):
    """Closed-form retained count: sum over frames of ceil(h/s) * ceil(w/s)."""
    return sum(math.ceil(grid_h / int(s)) * math.ceil(grid_w / int(s)) for s in strides)


def frames_with_adjacent_sims(sims):
    """Single-token 2-d frames whose adjacent-frame cosines equal sims exactly."""
    angles = [0.0]
    for s in sims:
        angles.append(angles[-1] + math.acos(s))
    tokens = np.array([[[math.cos(a), math.sin(a)]] for a in angles])
    return FrameEmbeddings(tokens=tokens, grid_h=1, grid_w=1)


def frames_with_text_scores(scores):
    """Single-token 2-d frames whose cosine against text (1, 0) equals scores exactly."""
    tokens = np.array([[[s, math.sqrt(1.0 - s * s)]] for s in scores])
    return FrameEmbeddings(tokens=tokens, grid_h=1, grid_w=1)


TEXT_X = TextEmbedding(vector=np.array([1.0, 0.0]), token_ids=np.array([1]))


def brute_force_events(sims, k):
    """Independent oracle: sort all adjacent similarities, cut at the k-1 smallest."""
    order = sorted(range(len(sims)), key=lambda i: (sims[i], i))
    cuts = sorted(order[: k - 1])
    events, start = [], 0
    for c in cuts:
        events.append((start, c + 1))
        start = c + 1
    events.append((start, len(sims) + 1))
    return events


class TestSegmentEvents:
    def test_hand_case(self):
        v = frames_with_adjacent_sims([0.9, 0.2, 0.8, 0.1])
        part = segment_events(v, 3)
        assert [(e.start, e.stop) for e in part.events] == [(0, 2), (2, 4), (4, 5)]

    def test_k_one(self):
        v = frames_with_adjacent_sims([0.5, 0.5, 0.5])
        part = segment_events(v, 1)
        assert part.num_events == 1
        assert [(e.start, e.stop) for e in part.events] == [(0, 4)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_norm_frame_fails_whatever_k(self, k):
        v = frames_with_adjacent_sims([0.5, 0.5, 0.5])
        v.tokens[2] = 0.0
        with pytest.raises(ZeroNormError):
            segment_events(v, k)

    def test_k_equals_t(self):
        v = frames_with_adjacent_sims([0.5, 0.9, 0.1])
        part = segment_events(v, 4)
        assert part.num_events == 4
        assert all(len(e) == 1 for e in part.events)

    def test_k_too_large(self):
        v = frames_with_adjacent_sims([0.5])
        with pytest.raises(ValueError):
            segment_events(v, 3)

    def test_matches_brute_force_oracle(self):
        # frames drawn from a small pool of distinct vectors, so repeated
        # adjacent pairs yield bitwise-duplicated similarities (tie coverage)
        rng = Rng64(2024)
        for _ in range(300):
            t = 2 + (rng.next_raw() % 63)
            k = 1 + (rng.next_raw() % t)
            pool = [rng.next_unit_array(4) for _ in range(2 + rng.next_raw() % 3)]
            # no adjacent repeats: identical-frame pairs sit on the clamp
            # boundary where float formulas may disagree at 1 ulp
            choice = 0
            frames = []
            for _ in range(t):
                choice = (choice + 1 + rng.next_raw() % (len(pool) - 1)) % len(pool)
                frames.append(pool[choice])
            v = FrameEmbeddings(tokens=np.stack(frames)[:, None, :], grid_h=1, grid_w=1)
            means = v.tokens.mean(axis=1)
            sims = [
                max(-1.0, min(1.0, float(means[i] @ means[i + 1])
                    / float(np.linalg.norm(means[i]) * np.linalg.norm(means[i + 1]))))
                for i in range(t - 1)
            ]
            part = segment_events(v, k)
            got = [(e.start, e.stop) for e in part.events]
            assert got == brute_force_events(sims, k)

    def test_partition_invariants(self):
        emb, _ = gen_synthetic(17, 2, 3, 8, seed=1, num_segments=4)
        part = segment_events(emb, 5)
        events = part.events
        assert part.num_events == 5
        covered = [i for ev in events for i in ev]
        assert covered == list(range(17))


class TestScoreRelevance:
    def test_frame_equal_to_text(self):
        v = FrameEmbeddings(tokens=np.tile([1.0, 0.0], (1, 4, 1)), grid_h=2, grid_w=2)
        part = score_relevance(v, TEXT_X, segment_events(v, 1))
        assert part.frame_scores[0] == 1.0

    def test_orthogonal_frame(self):
        v = FrameEmbeddings(tokens=np.tile([0.0, 1.0], (1, 4, 1)), grid_h=2, grid_w=2)
        part = score_relevance(v, TEXT_X, segment_events(v, 1))
        assert part.frame_scores[0] == 0.0

    def test_event_aggregation_modes(self):
        v = frames_with_text_scores([0.2, 0.6])
        part = EventPartition(num_frames=2, boundaries=())
        mean_part = score_relevance(v, TEXT_X, part)
        assert mean_part.event_scores[0] == pytest.approx(0.4, abs=1e-12)
        max_part = score_relevance(v, TEXT_X, EventPartition(num_frames=2, boundaries=()), "max")
        assert max_part.event_scores[0] == pytest.approx(0.6, abs=1e-12)

    def test_dim_mismatch(self):
        v = frames_with_text_scores([0.5])
        bad = TextEmbedding(vector=np.ones(3), token_ids=np.array([0]))
        with pytest.raises(ValueError):
            score_relevance(v, bad, segment_events(v, 1))


class TestSelectKeys:
    def test_top_events(self):
        v = frames_with_text_scores([0.3, 0.7, 0.5])
        part = score_relevance(v, TEXT_X, segment_events(v, 3))
        part = select_keys(part, alpha=0.5, beta=1.0)
        assert part.key_event.tolist() == [False, True, True]

    def test_alpha_one_all_key(self):
        v = frames_with_text_scores([0.3, 0.7, 0.5])
        part = score_relevance(v, TEXT_X, segment_events(v, 3))
        part = select_keys(part, alpha=1.0, beta=0.5)
        assert part.key_event.all()

    def test_key_frame_count_beta(self):
        # ceil(0.45 * 4) == 2
        v = frames_with_text_scores([0.1, 0.9, 0.5, 0.3])
        part = score_relevance(v, TEXT_X, segment_events(v, 1))
        part = select_keys(part, alpha=1.0, beta=0.45)
        assert int(part.key_frame.sum()) == 2
        assert part.key_frame.tolist() == [False, True, True, False]

    def test_every_event_keeps_a_key_frame(self):
        rng = Rng64(5)
        for _ in range(50):
            t = 2 + (rng.next_raw() % 20)
            k = 1 + (rng.next_raw() % t)
            emb, text = gen_synthetic(t, 2, 2, 8, seed=rng.next_raw(), num_segments=1)
            part = select_keys(
                score_relevance(emb, text, segment_events(emb, k)), alpha=0.5, beta=0.2
            )
            assert int(part.key_event.sum()) == ceil_scaled(0.5, k)
            for ev in part.events:
                want = max(1, ceil_scaled(0.2, len(ev)))
                assert int(part.key_frame[ev.start : ev.stop].sum()) == want


class TestScaledStride:
    def test_reference_regime(self):
        assert scaled_stride(2, 0.5) == 4
        assert scaled_stride(3, 0.5) == 6

    def test_rounding_with_floor(self):
        assert scaled_stride(2, 0.4) == 5
        assert scaled_stride(1, 1.0) == 1
        assert scaled_stride(2, 0.8) == 3  # 2.5 rounds half up


def hand_partition_two_events():
    part = EventPartition(num_frames=8, boundaries=(3,))
    part.key_event = np.array([True, False])
    part.key_frame = np.array([True, True, False, False, True, True, False, False])
    return part


class TestAdaptivePool:
    def test_hand_token_count(self):
        # two events of 4 frames over a 4x4 grid: 10 + 4 = 14 of 128 tokens
        rng = Rng64(3)
        v = FrameEmbeddings(
            tokens=rng.next_unit_array(8 * 16 * 4).reshape(8, 16, 4), grid_h=4, grid_w=4
        )
        plan = _stride_plan(v, hand_partition_two_events(), s1=2, s2=4, alpha=0.5)
        stream = adaptive_pool(v, plan)
        assert len(stream) == 14
        assert plan.frame_strides.tolist() == [2, 2, 4, 4, 4, 4, 8, 8]

    def test_identity_configuration(self):
        rng = Rng64(4)
        v = FrameEmbeddings(
            tokens=rng.next_unit_array(3 * 4 * 2).reshape(3, 4, 2), grid_h=2, grid_w=2
        )
        part = EventPartition(num_frames=3, boundaries=())
        part.key_event = np.array([True])
        part.key_frame = np.ones(3, dtype=bool)
        stream = adaptive_pool(v, _stride_plan(v, part, s1=1, s2=1, alpha=1.0))
        assert len(stream) == 12
        assert np.array_equal(stream.tokens, v.tokens.reshape(12, 2))

    def test_frame_order_and_contiguity(self):
        rng = Rng64(6)
        v = FrameEmbeddings(
            tokens=rng.next_unit_array(8 * 16 * 4).reshape(8, 16, 4), grid_h=4, grid_w=4
        )
        plan = _stride_plan(v, hand_partition_two_events(), s1=2, s2=4, alpha=0.5)
        stream = adaptive_pool(v, plan)
        # each frame's pooled block is one contiguous run, frames in temporal order
        blocks = [avg_pool_2d(v.frame_grid(i), s).reshape(-1, 4)
                  for i, s in enumerate(plan.frame_strides)]
        assert np.array_equal(stream.tokens, np.concatenate(blocks))
        # key-event frames 0-3 pool to 4+4+1+1 tokens, non-key frames 4-7 to 1 each
        assert stream.key_event.tolist() == [True] * 10 + [False] * 4

    def test_closed_form_count(self):
        rng = Rng64(77)
        for _ in range(60):
            t = 1 + (rng.next_raw() % 10)
            h = 1 + (rng.next_raw() % 7)
            w = 1 + (rng.next_raw() % 7)
            k = 1 + (rng.next_raw() % t)
            s1 = 1 + (rng.next_raw() % 3)
            s2 = s1 + (rng.next_raw() % 3)
            alpha = (1 + (rng.next_raw() % 10)) / 10
            beta = (1 + (rng.next_raw() % 10)) / 10
            emb, text = gen_synthetic(t, h, w, 6, seed=rng.next_raw() % 10**6, num_segments=1)
            part = select_keys(
                score_relevance(emb, text, segment_events(emb, k)), alpha, beta
            )
            plan = _stride_plan(emb, part, s1, s2, alpha)
            stream = adaptive_pool(emb, plan)
            assert len(stream) == expected_token_count(h, w, plan.frame_strides)


class TestRunVisionStage:
    def test_identity_token_count(self):
        emb, text = gen_synthetic(6, 3, 3, 8, seed=9, num_segments=2)
        cfg = RunConfig(k=2, alpha=1.0, beta=1.0, s1=1, s2=1)
        stream, _ = run_vision_stage(emb, text, cfg)
        assert len(stream) == 6 * 9

    def test_hand_config_count(self):
        # same 14-token scenario, driven end to end with planted relevance
        rng = Rng64(12)
        tokens = rng.next_unit_array(8 * 16 * 4).reshape(8, 16, 4) * 0.05
        tokens[:4] += np.array([1.0, 0, 0, 0])    # event 0: near text
        tokens[4:] += np.array([0, 1.0, 0, 0])    # event 1: orthogonal
        v = FrameEmbeddings(tokens=tokens, grid_h=4, grid_w=4)
        text = TextEmbedding(vector=np.array([1.0, 0, 0, 0]), token_ids=np.array([1]))
        cfg = RunConfig(k=2, alpha=0.5, beta=0.5, s1=2, s2=4)
        stream, part = run_vision_stage(v, text, cfg)
        assert part.key_event.tolist() == [True, False]
        assert len(stream) == 14

    def test_vision_disabled_emits_raw(self):
        emb, text = gen_synthetic(4, 2, 2, 8, seed=2, num_segments=2)
        cfg = RunConfig(k=2, disable_stages=("vision",))
        stream, _ = run_vision_stage(emb, text, cfg)
        assert len(stream) == 16
        assert np.array_equal(stream.tokens, emb.tokens.reshape(16, 8))
        assert stream.key_event.all()

    def test_single_frame_video(self):
        emb, text = gen_synthetic(1, 4, 4, 8, seed=3)
        cfg = RunConfig(k=1, alpha=0.5, beta=0.5, s1=2, s2=4)
        stream, part = run_vision_stage(emb, text, cfg)
        assert part.key_event.tolist() == [True]
        assert part.key_frame.tolist() == [True]
        assert len(stream) == 4  # ceil(4/2)^2

    def test_text_scale_invariance_of_flags(self):
        emb, text = gen_synthetic(12, 2, 2, 8, seed=8, num_segments=3)
        cfg = RunConfig(k=3, alpha=0.5, beta=0.5)
        _, part_a = run_vision_stage(emb, text, cfg)
        scaled = TextEmbedding(vector=text.vector * 37.5, token_ids=text.token_ids)
        _, part_b = run_vision_stage(emb, scaled, cfg)
        assert np.array_equal(part_a.key_event, part_b.key_event)
        assert np.array_equal(part_a.key_frame, part_b.key_frame)

    def test_group_counts(self):
        emb, text = gen_synthetic(12, 4, 4, 8, seed=8, num_segments=3)
        cfg = RunConfig(k=3, alpha=0.5, beta=0.5, s1=2, s2=4)
        stream, part = run_vision_stage(emb, text, cfg)
        n_key, n_nonkey = stream.group_counts()
        assert n_key + n_nonkey == len(stream)
        key_frames = [i for ev, flag in zip(part.events, part.key_event) if flag for i in ev]
        strides = plan_vision_stage(emb, text, cfg).frame_strides
        assert n_key == expected_token_count(4, 4, strides[key_frames])


class TestUniformStream:
    def test_stride_pooling(self):
        emb, text = gen_synthetic(3, 4, 4, 8, seed=5)
        cfg = RunConfig(disable_stages=("vision",), baseline_stride=2)
        plan = plan_vision_stage(emb, text, cfg)
        stream = uniform_stream(emb, plan)
        assert len(stream) == 3 * 4
        assert plan.frame_strides.tolist() == [2, 2, 2]


STAGE_SUBSETS = [tuple(itertools.compress(STAGES, mask))
                 for mask in itertools.product((False, True), repeat=len(STAGES))]
UNIT_RATIOS = st.floats(0.05, 1.0)


@st.composite
def vision_runs(draw):
    """Small videos, grids 1x1 to 7x7, with configs whose strides may exceed the grid."""
    t, h, w = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    s1 = draw(st.integers(1, 8))
    cfg = RunConfig(
        k=draw(st.integers(1, t)), alpha=draw(UNIT_RATIOS), beta=draw(UNIT_RATIOS),
        s1=s1, s2=draw(st.integers(s1, 9)), baseline_stride=draw(st.integers(1, 3)),
        frame_reduce=draw(st.sampled_from(FRAME_REDUCES)),
        event_score=draw(st.sampled_from(EVENT_SCORES)),
        disable_stages=draw(st.sampled_from(STAGE_SUBSETS)),
    )
    frames, text = gen_synthetic(t, h, w, 6, seed=draw(st.integers(0, 10**6)),
                                 num_segments=draw(st.integers(1, t)))
    return frames, text, cfg


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(run=vision_runs())
def test_plan_agrees_with_materialised_stream(run):
    """The count-only plan and the pooled stream agree on every count."""
    frames, text, cfg = run
    plan = plan_vision_stage(frames, text, cfg)
    stream, partition = run_vision_stage(frames, text, cfg)
    assert len(plan) == len(stream)
    assert plan.group_counts() == stream.group_counts()
    assert plan.partition.boundaries == partition.boundaries


@pytest.mark.parametrize("analytic", [False, True], ids=["toy", "analytic"])
def test_one_stride_plan_per_run(monkeypatch, analytic):
    """A simulation plans each of its two runs once; pooling reuses the plan."""
    calls = []
    monkeypatch.setattr(vision, "_stride_plan", lambda *a: calls.append(1) or _stride_plan(*a))
    frames, text = gen_synthetic(6, 4, 4, 8, seed=4, num_segments=2)
    cfg = RunConfig(k=2, layers=4, heads=2, d_model=8, layer_boundaries=(1, 2, 3))
    run_simulation(frames, text, cfg, steps=2, analytic=analytic)
    assert len(calls) == 2
