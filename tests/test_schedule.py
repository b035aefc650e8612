import numpy as np
import pytest

from metok.data_io import RunConfig
from metok.kernels import Rng64, ceil_scaled
from metok.schedule import (
    PruneSchedule,
    kv_drop_layer,
    retention_ratio,
    select_at_boundary,
    token_importance,
)
from metok.toy_llm import KvCache, apply_kv_policy


def reference_schedule(n_key=0, n_nonkey=0):
    return PruneSchedule(
        l1=3, l2=10, l3=19, r=0.55, alpha=0.5, total_layers=28,
        n_key=n_key, n_nonkey=n_nonkey,
    )


class TestRetentionRatio:
    def test_key_tiers(self):
        s = reference_schedule()
        assert retention_ratio(2, "key", s) == 1.0
        assert retention_ratio(5, "key", s) == 0.55
        assert retention_ratio(12, "key", s) == 0.55 * 0.55
        assert retention_ratio(19, "key", s) == 0.0
        assert retention_ratio(27, "key", s) == 0.0

    def test_non_key_tiers(self):
        s = reference_schedule()
        assert retention_ratio(2, "non_key", s) == 1.0
        assert retention_ratio(5, "non_key", s) == 0.275
        assert retention_ratio(10, "non_key", s) == 0.0

    def test_boundary_layers_drop(self):
        # the zero branch applies at and above each boundary
        s = reference_schedule()
        assert retention_ratio(3, "key", s) == 0.55
        assert retention_ratio(10, "key", s) == 0.55 * 0.55
        assert retention_ratio(19, "key", s) == 0.0
        assert retention_ratio(10, "non_key", s) == 0.0

    def test_monotone_and_group_ordering(self):
        rng = Rng64(31)
        for _ in range(200):
            layers = 4 + rng.next_raw() % 28
            l1 = rng.next_raw() % (layers - 2)
            l2 = l1 + 1 + rng.next_raw() % (layers - l1 - 1)
            l3 = l2 + 1 + rng.next_raw() % 8
            r = (1 + rng.next_raw() % 1000) / 1000
            alpha = (1 + rng.next_raw() % 1000) / 1000
            s = PruneSchedule(l1=l1, l2=l2, l3=l3, r=r, alpha=alpha, total_layers=layers)
            for group in ("key", "non_key"):
                ratios = [retention_ratio(l, group, s) for l in range(layers)]
                assert all(a >= b for a, b in zip(ratios, ratios[1:]))
            for l in range(layers):
                assert retention_ratio(l, "key", s) >= retention_ratio(l, "non_key", s)

    def test_r_one_late_boundaries_is_noop(self):
        s = PruneSchedule(l1=12, l2=13, l3=14, r=1.0, alpha=0.5, total_layers=12)
        for l in range(12):
            assert retention_ratio(l, "key", s) == 1.0
            assert retention_ratio(l, "non_key", s) == 1.0

    def test_keep_counts_reference_case(self):
        s = reference_schedule(n_key=100, n_nonkey=40)
        assert [s.keep_count(l, "key") for l in (0, 3, 10, 19)] == [100, 55, 31, 0]
        assert [s.keep_count(l, "non_key") for l in (0, 3, 10)] == [40, 11, 0]

    def test_prefill_disabled_via_config(self):
        cfg = RunConfig(layers=12, disable_stages=("prefill",))
        s = PruneSchedule.from_config(cfg, 10, 10)
        assert s.boundary_layers() == ()
        for l in range(12):
            assert s.keep_count(l, "key") == 10


class TestTokenImportance:
    def test_single_head_single_query(self):
        attn = np.array([[[0.7, 0.3]]])
        scores = token_importance(attn, np.array([0, 1]))
        assert np.allclose(scores, [0.7, 0.3])

    def test_mean_over_queries(self):
        attn = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        scores = token_importance(attn, np.array([0, 1]))
        assert np.allclose(scores, [0.5, 0.5])

    def test_identical_heads_idempotent(self):
        row = np.array([[0.6, 0.4]])
        attn = np.stack([row, row])
        one = token_importance(attn[:1, [0]], np.array([0, 1]))
        two = token_importance(attn[:, [0]], np.array([0, 1]))
        assert np.array_equal(one, two)

    def test_bits_match_gathering_text_rows_then_tokens(self):
        # the score's summation order: a slice of text rows, then the token columns
        rng = np.random.default_rng(5)
        for heads, rows, keys in [(1, 1, 1), (4, 8, 300), (3, 17, 1000), (12, 40, 64)]:
            attn = rng.random((heads, rows, keys))
            attn /= attn.sum(axis=-1, keepdims=True)
            visual = np.flatnonzero(rng.random(keys) < 0.5)
            want = attn[:, np.arange(rows), :][:, :, visual].mean(axis=(0, 1))
            assert np.array_equal(token_importance(attn, visual), want)


class TestSelectAtBoundary:
    def test_hand_case(self):
        kept = select_at_boundary(
            np.array([0.1, 0.4, 0.3, 0.2]), np.array([0, 1, 2, 3]), 4, 0.5
        )
        assert kept.tolist() == [1, 2]

    def test_ratio_one_keeps_all(self):
        ids = np.array([2, 5, 9])
        kept = select_at_boundary(np.array([0.3, 0.2, 0.1]), ids, 3, 1.0)
        assert kept.tolist() == [2, 5, 9]

    def test_ratio_zero_keeps_none(self):
        kept = select_at_boundary(np.array([0.3]), np.array([4]), 1, 0.0)
        assert kept.size == 0

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            select_at_boundary(np.array([0.3]), np.array([0]), 10, 0.5)

    def test_stable_ties_keep_earliest(self):
        scores = np.zeros(5)
        kept = select_at_boundary(scores, np.arange(5), 5, 0.4)
        assert kept.tolist() == [0, 1]

    def test_nesting_property(self):
        # tier 1 selects among all origin tokens, tier 2 among tier-1 survivors
        rng = Rng64(99)
        for _ in range(1000):
            origin = 1 + rng.next_raw() % 40
            scores = np.round(rng.next_unit_array(origin) * 8) / 8
            ids = np.arange(origin) + rng.next_raw() % 100
            r1 = (1 + rng.next_raw() % 1000) / 1000
            r2 = r1 * ((1 + rng.next_raw() % 1000) / 1000)
            outer = select_at_boundary(scores, ids, origin, r1)
            mask = np.isin(ids, outer)
            inner = select_at_boundary(scores[mask], ids[mask], origin, r2)
            assert set(inner.tolist()) <= set(outer.tolist())

    def test_ceiling_feasibility(self):
        rng = Rng64(12)
        for _ in range(500):
            n = rng.next_raw() % 200
            r = (1 + rng.next_raw() % 1000) / 1000
            assert ceil_scaled(r * r, n) <= ceil_scaled(r, n)


def hand_cache(n_vis, n_text, layers, d=4, room=0):
    """Prefill-shaped cache: every layer holds all n_vis visual then n_text text rows, then
    room spare rows of -1.

    Each row's key holds its prompt position in every column.
    """
    n = n_vis + n_text
    cache = KvCache(prompt_len=n, text_len=n_text, room=room)
    for _ in range(layers):
        rows = np.concatenate([np.arange(n, dtype=np.float64), np.full(room, -1.0)])
        cache.k.append(np.repeat(rows[:, None], d, axis=1))
        cache.v.append(np.zeros((n + room, d)))
    return cache


def kept_counts(cfg, n_vis, n_text):
    return apply_kv_policy(hand_cache(n_vis, n_text, cfg.layers), kv_drop_layer(cfg)).entry_counts()


class TestKvKeepMask:
    def test_counts_hand_case(self):
        cfg = RunConfig(layers=4, layer_boundaries=(2, 3, 4))
        assert kept_counts(cfg, 100, 10) == [110, 110, 10, 10]
        # the decode drop starts at l1 whatever the prefill toggle
        no_prefill = RunConfig(layers=4, layer_boundaries=(2, 3, 4), disable_stages=("prefill",))
        assert kv_drop_layer(no_prefill) == 2
        assert kept_counts(no_prefill, 100, 10) == [110, 110, 10, 10]

    def test_policy_disabled(self):
        for cfg in (RunConfig(layers=4, layer_boundaries=(4, 5, 6)),
                    RunConfig(layers=4, layer_boundaries=(1, 2, 3), disable_stages=("decode",))):
            assert kept_counts(cfg, 10, 3) == [13] * 4

    def test_l1_zero_drops_everywhere(self):
        assert kept_counts(RunConfig(layers=3, layer_boundaries=(0, 1, 2)), 10, 3) == [3] * 3

    def test_text_never_removed(self):
        rng = Rng64(8)
        for _ in range(200):
            layers = 1 + rng.next_raw() % 12
            l1 = rng.next_raw() % (layers + 1)
            n_vis = rng.next_raw() % 30
            n_text = 1 + rng.next_raw() % 10
            cfg = RunConfig(layers=layers, layer_boundaries=(l1, l1 + 1, l1 + 2))
            room = rng.next_raw() % 3
            cache = apply_kv_policy(hand_cache(n_vis, n_text, layers, room=room),
                                    kv_drop_layer(cfg))
            text = np.arange(n_vis, n_vis + n_text)
            assert cache.room == room
            for c, k in zip(cache.entry_counts(), cache.k):
                assert len(k) == c + room
                assert np.array_equal(k[c - n_text : c], np.repeat(text[:, None], 4, axis=1))
