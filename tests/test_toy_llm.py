import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metok import toy_llm
from metok.data_io import RunConfig, TextEmbedding, config_with, gen_synthetic
from metok.kernels import Rng64
from metok.pipeline import run_simulation
from metok.schedule import PruneSchedule, retention_ratio, select_at_boundary, token_importance
from metok.toy_llm import (
    KvCache,
    PrefillInput,
    _causal_attention,
    _causal_exp,
    _needs_shift,
    _rms_norm,
    _rms_row,
    _score_bound,
    _split_heads,
    _upper_mask,
    apply_kv_policy,
    attention_ratio_trace,
    build_prefill_input,
    decode,
    init_model,
    prefill,
    sinusoidal_positions,
)
from metok.vision import TokenStream, run_vision_stage


def make_stream(n_key, n_nonkey, dim, seed=0):
    """Hand-built token stream: n_key key-group tokens then n_nonkey non-key ones."""
    rng = Rng64(seed)
    n = n_key + n_nonkey
    return TokenStream(
        tokens=rng.next_unit_array(n * dim).reshape(n, dim),
        key_event=np.repeat([True, False], [n_key, n_nonkey]),
    )


def make_text(m, dim, seed=1):
    rng = Rng64(seed)
    return TextEmbedding(
        vector=rng.next_unit_array(dim),
        token_ids=np.array([rng.next_raw() % 256 for _ in range(m)]),
    )


def dense_probs(q, k):
    """(heads, n, n) causal post-softmax attention of split-head q/k, built whole."""
    n = q.shape[1]
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(q.shape[-1])
    scores = scores + np.triu(np.full((n, n), -np.inf), k=1)[None, :, :]
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores)
    return p / p.sum(axis=-1, keepdims=True)


def qkv_weights(model, layer):
    """The layer's Q, K and V weights: the three column blocks of its w_qkv."""
    return np.split(model.w_qkv[layer], 3, axis=1)


def dense_prefill(model, inp, sched):
    """Oracle prefill: dense attention on every layer; each boundary scores from
    the full (heads, n, n) probabilities, then projects its survivors again."""
    x, is_key, m = inp.x, inp.is_key, inp.text_len
    ids = np.arange(x.shape[0])
    is_text = ids >= x.shape[0] - m
    boundaries = set(sched.boundary_layers())
    cache = KvCache(prompt_len=x.shape[0], text_len=m)
    lengths = []
    for layer in range(model.layers):
        wq, wk, wv = qkv_weights(model, layer)
        if layer in boundaries:
            h = _rms_norm(x)
            attn = dense_probs(_split_heads(h @ wq, model.heads), _split_heads(h @ wk, model.heads))
            rows = np.arange(x.shape[0])
            keep = is_text.copy()
            for group, flag in (("key", True), ("non_key", False)):
                grp = rows[~is_text][is_key == flag]
                if grp.size == 0 and sched.origin(group) == 0:
                    continue
                importance = token_importance(attn[:, is_text], grp)
                kept = select_at_boundary(importance, ids[grp], sched.origin(group),
                                          retention_ratio(layer, group, sched))
                keep[grp] = np.isin(ids[grp], kept)
            x, ids, is_text, is_key = x[keep], ids[keep], is_text[keep], is_key[keep[~is_text]]
        n = x.shape[0]
        lengths.append(n)
        h = _rms_norm(x)
        k_flat, v_flat = h @ wk, h @ wv
        p = dense_probs(_split_heads(h @ wq, model.heads),
                        _split_heads(k_flat, model.heads))
        out = (p @ _split_heads(v_flat, model.heads)).transpose(1, 0, 2).reshape(n, -1)
        x = x + out @ model.wo[layer]
        x = x + np.maximum(_rms_norm(x) @ model.w_in[layer], 0.0) @ model.w_out[layer]
        cache.k.append(k_flat)
        cache.v.append(v_flat)
    return cache, lengths, _rms_norm(x)[-1] @ model.unembed


def assert_same_cache(a, b, kv_tol=0.0):
    """Equal metadata in every layer; keys/values equal, or within kv_tol."""
    assert (a.prompt_len, a.text_len) == (b.prompt_len, b.text_len)
    assert len(a.k) == len(b.k)
    for layer in range(len(a.k)):
        for name in ("k", "v"):
            got, want = getattr(a, name)[layer], getattr(b, name)[layer]
            assert got.shape == want.shape
            assert float(np.max(np.abs(got - want), initial=0.0)) <= kv_tol


def weights_checksum(model):
    """Order-stable digest of all weights, for determinism checks."""
    parts = [model.embed, model.unembed]
    parts += [qkv_weights(model, layer)[i] for i in range(3) for layer in range(model.layers)]
    parts += model.wo + model.w_in + model.w_out
    return float(sum(float(np.sum(p * p)) for p in parts))


def record_keep_masks(monkeypatch):
    """List that collects every keep mask prefill's boundaries return, in order."""
    masks = []

    def recording(*args):
        masks.append(prune(*args))
        return masks[-1]

    prune = toy_llm._prune_boundary
    monkeypatch.setattr(toy_llm, "_prune_boundary", recording)
    return masks


def disabled_schedule(layers):
    return PruneSchedule(
        l1=layers, l2=layers + 1, l3=layers + 2, r=0.5, alpha=0.5,
        total_layers=layers, n_key=0, n_nonkey=0,
    )


class TestInitModel:
    def test_same_config_same_checksum(self):
        cfg = RunConfig(layers=3, heads=2, d_model=16, seed=5)
        assert weights_checksum(init_model(cfg)) == weights_checksum(init_model(cfg))

    def test_different_seed_different_checksum(self):
        a = init_model(RunConfig(layers=3, heads=2, d_model=16, seed=5))
        b = init_model(RunConfig(layers=3, heads=2, d_model=16, seed=6))
        assert weights_checksum(a) != weights_checksum(b)

    def test_head_dim(self):
        m = init_model(RunConfig(layers=1, heads=4, d_model=64))
        assert m.head_dim == 16

    def test_weight_stream_is_pinned(self):
        # sha256 of every weight in draw order: embed, then per layer wq, wk, wv (the
        # column blocks of w_qkv), wo, w_in, w_out, then unembed; computed when each
        # weight had its own array
        model = init_model(RunConfig(layers=2, heads=2, d_model=16, seed=3))
        digest = hashlib.sha256(model.embed.tobytes())
        for layer in range(model.layers):
            for w in (*qkv_weights(model, layer), model.wo[layer], model.w_in[layer],
                      model.w_out[layer]):
                digest.update(np.ascontiguousarray(w).tobytes())
        digest.update(model.unembed.tobytes())
        assert digest.hexdigest() == (
            "a0acf918a90de9e7f8c6e69485a44464c6a452a5a7d5f685f2e82fafdb40a8a6")


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=256),
       exponent=st.floats(-150.0, 150.0), zero=st.booleans())
def test_row_norm_bit_identical_to_batched_norm(values, exponent, zero):
    x = np.zeros(len(values)) if zero else np.array(values) * 10.0**exponent
    assert np.array_equal(_rms_row(x), _rms_norm(x[None])[0])


def test_rms_norm_hand_value():
    # x / sqrt(mean(x^2) + 1e-6); in the second row the eps outweighs mean(x^2)
    x = np.array([[3.0, 4.0], [1e-3, 0.0]])
    want = np.array([[3.0, 4.0], [1e-3, 0.0]]) / np.sqrt([[12.5 + 1e-6], [5e-7 + 1e-6]])
    np.testing.assert_allclose(_rms_norm(x), want, rtol=1e-14)
    np.testing.assert_allclose(_rms_row(x[1]), want[1], rtol=1e-14)


class TestPrefill:
    def test_disabled_schedule_keeps_lengths(self):
        cfg = RunConfig(layers=4, heads=2, d_model=16, seed=3)
        model = init_model(cfg)
        stream = make_stream(10, 5, 8)
        inp = build_prefill_input(model, stream, make_text(4, 8))
        res = prefill(model, inp, disabled_schedule(4))
        assert res.layer_lengths == [19, 19, 19, 19]
        assert res.cache.entry_counts() == [19, 19, 19, 19]

    def test_noop_schedule_bitwise_equals_disabled(self):
        # r=1 with the last boundary beyond the stack never filters anything
        cfg = RunConfig(layers=6, heads=2, d_model=16, seed=3)
        model = init_model(cfg)
        stream = make_stream(8, 4, 8)
        text = make_text(3, 8)
        inp_a = build_prefill_input(model, stream, text)
        inp_b = build_prefill_input(model, stream, text)
        # full retention needs r=1, alpha=1, and both drop branches out of reach
        noop = PruneSchedule(
            l1=2, l2=7, l3=8, r=1.0, alpha=1.0, total_layers=6, n_key=8, n_nonkey=4
        )
        res_a = prefill(model, inp_a, noop)
        res_b = prefill(model, inp_b, disabled_schedule(6))
        assert res_a.layer_lengths == res_b.layer_lengths
        assert np.array_equal(res_a.final_logits, res_b.final_logits)
        assert_same_cache(res_a.cache, res_b.cache)

    def test_tiered_lengths_hand_case(self):
        cfg = RunConfig(layers=20, heads=4, d_model=32, seed=7)
        model = init_model(cfg)
        stream = make_stream(100, 40, 16)
        inp = build_prefill_input(model, stream, make_text(6, 16))
        sched = PruneSchedule(
            l1=3, l2=10, l3=19, r=0.55, alpha=0.5, total_layers=20,
            n_key=100, n_nonkey=40,
        )
        res = prefill(model, inp, sched)
        want = [146] * 3 + [72] * 7 + [37] * 9 + [6]
        assert res.layer_lengths == want
        assert res.cache.entry_counts() == want

    def test_equal_importance_keeps_earliest(self, monkeypatch):
        cfg = RunConfig(layers=4, heads=2, d_model=16, seed=9)
        model = init_model(cfg)
        for layer in range(4):
            model.w_qkv[layer][:, :16] = 0.0  # zero Q: uniform attention -> equal importance
        stream = make_stream(6, 4, 8)
        inp = build_prefill_input(model, stream, make_text(2, 8))
        sched = PruneSchedule(
            l1=1, l2=2, l3=3, r=0.5, alpha=0.5, total_layers=4, n_key=6, n_nonkey=4
        )
        masks = record_keep_masks(monkeypatch)
        prefill(model, inp, sched)
        # layer 1 keeps ceil(.5*6)=3 key and ceil(.25*4)=1 non-key, earliest first
        assert np.flatnonzero(masks[0]).tolist() == [0, 1, 2, 6, 10, 11]

    def test_text_positions_never_pruned(self, monkeypatch):
        cfg = RunConfig(layers=8, heads=2, d_model=16, seed=2)
        model = init_model(cfg)
        stream = make_stream(20, 10, 8)
        inp = build_prefill_input(model, stream, make_text(5, 8))
        sched = PruneSchedule(
            l1=1, l2=3, l3=5, r=0.4, alpha=0.5, total_layers=8, n_key=20, n_nonkey=10
        )
        masks = record_keep_masks(monkeypatch)
        prefill(model, inp, sched)
        assert len(masks) == 3
        for keep in masks:
            assert keep[-5:].all()

    @pytest.mark.parametrize("text_len, n_tags", [(0, 6), (7, 0), (2, 6), (2, 3)])
    def test_input_needs_a_text_tail_and_one_tag_per_visual_row(self, text_len, n_tags):
        with pytest.raises(ValueError):
            PrefillInput(x=np.zeros((6, 4)), is_key=np.ones(n_tags, dtype=bool), text_len=text_len)
        PrefillInput(x=np.zeros((6, 4)), is_key=np.ones(4, dtype=bool), text_len=2)


def random_qkv(heads, n, head_dim, seed):
    rng = Rng64(seed)
    return [rng.next_unit_array(heads * n * head_dim).reshape(heads, n, head_dim)
            for _ in range(3)]


def scaled_qk(model, factor):
    """A copy of model whose Q and K weights are scaled by factor, so its scores by factor²."""
    d = model.d_model
    w_qkv = [np.concatenate([w[:, : 2 * d] * factor, w[:, 2 * d :]], axis=1)
             for w in model.w_qkv]
    return dataclasses.replace(model, w_qkv=w_qkv)


def assert_matches_dense_prefill(model, inp, sched):
    """Keep sets, lengths and decoded tokens equal the dense oracle's; logits to 1e-9."""
    res = prefill(model, inp, sched)
    cache, lengths, final_logits = dense_prefill(model, inp, sched)
    assert res.layer_lengths == lengths
    assert_same_cache(res.cache, cache, kv_tol=1e-12)
    assert float(np.max(np.abs(res.final_logits - final_logits))) <= 1e-9
    drop = sched.l1
    out = decode(model, apply_kv_policy(res.cache, drop), 4, res.final_logits)
    want = decode(model, apply_kv_policy(cache, drop), 4, final_logits)
    assert np.array_equal(out.tokens, want.tokens)
    assert float(np.max(np.abs(out.logits - want.logits))) <= 1e-9


class TestBlockedAttention:
    B = toy_llm._QBLOCK

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 17])
    def test_matches_dense_oracle(self, n):
        # the helpers take q pre-scaled by 1/sqrt(head_dim); the oracle scales its own
        q, k, v = random_qkv(2, n, 4, seed=n)
        want = (dense_probs(q, k) @ v).transpose(1, 0, 2).reshape(n, -1)
        for first, shift in itertools.product((0, n // 2, n - 1), (False, True)):
            got = _causal_attention(q / math.sqrt(4), k, v, first, shift=shift)
            assert float(np.max(np.abs(got - want[first:]))) <= 1e-12  # rows [first:n] only

    @pytest.mark.parametrize("heads", [1, 3, 4])
    @pytest.mark.parametrize("n", [1, B + 1, 2 * B + 17])
    def test_head_chunks_bit_identical_to_one_chunk(self, n, heads, monkeypatch):
        q, k, v = random_qkv(heads, n, 4, seed=n + heads)
        for first, shift in itertools.product((0, n - 1), (False, True)):
            monkeypatch.setattr(toy_llm, "_usable_cpus", lambda: 1)
            monkeypatch.setattr(toy_llm, "_head_pool", None)  # one CPU needs no pool
            want = _causal_attention(q, k, v, first, shift=shift)
            monkeypatch.undo()
            monkeypatch.setattr(toy_llm, "_CHUNK_SCORES", 1)  # chunk even the smallest call
            for cpus in (2, 3, 8):  # 3 heads on 2 CPUs split unevenly; 8 is capped at heads
                monkeypatch.setattr(toy_llm, "_usable_cpus", lambda: cpus)
                assert np.array_equal(_causal_attention(q, k, v, first, shift=shift), want)
            monkeypatch.undo()

    def test_small_calls_stay_on_the_callers_thread(self, monkeypatch):
        # a (4, B-1, B-1) workspace, or one final row, is too small to hand a chunk over
        monkeypatch.setattr(toy_llm, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(toy_llm, "_head_pool", None)
        q, k, v = random_qkv(4, self.B - 1, 4, seed=3)
        _causal_attention(q, k, v, shift=False)
        q, k, v = random_qkv(4, 2 * self.B + 17, 4, seed=4)
        _causal_attention(q, k, v, 2 * self.B + 16, shift=False)

    @pytest.mark.parametrize("m", [1, 7, B + 3])
    def test_text_rows_match_dense_rows(self, m):
        n = 2 * self.B + 17
        q, k, _ = random_qkv(3, n, 4, seed=m)
        want = dense_probs(q, k)[:, n - m :]
        shifted = _causal_exp(q / math.sqrt(4), k, n - m, n, _upper_mask(m), True)
        assert shifted.shape == (3, m, n)
        # unnormalised: each shifted row's largest numerator is exp(0)
        assert np.array_equal(shifted.max(axis=-1), np.ones((3, m)))
        # unshifted: exp of the scores themselves, and exactly 0 where a row may not look
        plain = _causal_exp(q / math.sqrt(4), k, n - m, n, _upper_mask(m), False)
        scores = (q / math.sqrt(4))[:, n - m :] @ k.transpose(0, 2, 1)
        visible = np.arange(n)[None, :] <= np.arange(n - m, n)[:, None]
        assert np.array_equal(plain, np.where(visible, np.exp(scores), 0.0))
        for numer in (shifted, plain):
            normed = numer / numer.sum(axis=-1, keepdims=True)
            assert float(np.max(np.abs(normed - want))) <= 1e-12

    def test_criterion_4_fixtures_match_dense_prefill(self):
        rng = Rng64(444)  # the first 40 of acceptance criterion 4's 100 runs
        for _ in range(40):
            layers = 12
            cfg = RunConfig(layers=layers, heads=4, d_model=64, seed=rng.next_raw() % 10**9)
            n_key = 8 + rng.next_raw() % 40
            n_nonkey = rng.next_raw() % 24
            m = 2 + rng.next_raw() % 6
            l1 = max(1, rng.next_raw() % (layers + 1))
            model = init_model(cfg)
            stream = make_stream(n_key, n_nonkey, 16, seed=cfg.seed + 1)
            inp = build_prefill_input(model, stream, make_text(m, 16, seed=cfg.seed + 2))
            sched = PruneSchedule(
                l1=l1, l2=l1 + 3, l3=l1 + 6, r=0.5, alpha=0.5, total_layers=layers,
                n_key=n_key, n_nonkey=n_nonkey,
            )
            assert_matches_dense_prefill(model, inp, sched)

    def test_criterion_8_fixture_matches_dense_prefill(self):
        # the baseline run's 264 tokens span two query blocks
        frames, text = gen_synthetic(16, 4, 4, 16, seed=11, num_segments=4)
        cfg = RunConfig(k=4, layers=8, heads=2, d_model=32, layer_boundaries=(2, 4, 6))
        model = init_model(cfg)
        base_cfg = config_with(cfg, disable_stages=("vision", "prefill", "decode"))
        for run_cfg in (cfg, base_cfg):
            stream, _ = run_vision_stage(frames, text, run_cfg)
            inp = build_prefill_input(model, stream, text)
            sched = PruneSchedule.from_config(run_cfg, *stream.group_counts())
            assert_matches_dense_prefill(model, inp, sched)

    def _pruned_run(self):
        cfg = RunConfig(layers=6, heads=4, d_model=32, seed=17)
        model = init_model(cfg)
        inp = build_prefill_input(model, make_stream(220, 90, 8), make_text(9, 8))
        sched = PruneSchedule(
            l1=2, l2=4, l3=5, r=0.5, alpha=0.5, total_layers=6, n_key=220, n_nonkey=90
        )
        return model, inp, sched

    def test_two_prefills_bit_identical(self):
        model, inp, sched = self._pruned_run()
        a, b = prefill(model, inp, sched), prefill(model, inp, sched)
        assert a.layer_lengths == b.layer_lengths
        assert np.array_equal(a.final_logits, b.final_logits)
        assert_same_cache(a.cache, b.cache)

    @pytest.mark.parametrize("l3", [5, 6])
    def test_one_row_final_layer_matches_dense_prefill(self, l3):
        # the final layer runs only the last row; at l3=5 it is a boundary layer too
        model, inp, sched = self._pruned_run()
        sched = dataclasses.replace(sched, l3=l3)
        res = prefill(model, inp, sched)
        cache, lengths, final_logits = dense_prefill(model, inp, sched)
        assert res.layer_lengths == lengths
        assert_same_cache(res.cache, cache, kv_tol=1e-12)
        assert float(np.max(np.abs(res.final_logits - final_logits))) <= 1e-12

    @pytest.mark.parametrize("block", [64, 1024])
    def test_block_size_changes_only_rounding(self, block, monkeypatch):
        model, inp, sched = self._pruned_run()
        ref = prefill(model, inp, sched)
        monkeypatch.setattr(toy_llm, "_QBLOCK", block)
        res = prefill(model, inp, sched)
        assert res.layer_lengths == ref.layer_lengths
        assert_same_cache(res.cache, ref.cache, kv_tol=1e-12)
        assert float(np.max(np.abs(res.final_logits - ref.final_logits))) <= 1e-12
        drop = sched.l1
        out = decode(model, apply_kv_policy(res.cache, drop), 6, res.final_logits)
        want = decode(model, apply_kv_policy(ref.cache, drop), 6, ref.final_logits)
        assert np.array_equal(out.tokens, want.tokens)

    def test_peak_memory_below_dense_scores(self, monkeypatch):
        # on 2 CPUs, 2 workers each score one head's query block at a time
        monkeypatch.setattr(toy_llm, "_usable_cpus", lambda: 2)
        heads, n_vis, m = 4, 1192, 8
        n = n_vis + m
        model = init_model(RunConfig(layers=2, heads=heads, d_model=16, seed=8))
        inp = build_prefill_input(model, make_stream(n_vis, 0, 8), make_text(m, 8))
        workspace_bytes = 2 * self.B * n * 8        # one (B, n) block per worker: about 4.9 MB
        other_bytes = 2 * 2**20  # the (B, B) mask tile, the (n, d) rows and cache, the MLP rows
        tracemalloc.start()
        try:
            prefill(model, inp, disabled_schedule(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < workspace_bytes + other_bytes < heads * self.B * n * 8

    @pytest.mark.parametrize("n", [B - 1, B, 2 * B - 1, 2 * B, 2 * B + 17, 1100])
    def test_prefill_bit_identical_at_any_cpu_count(self, n, monkeypatch):
        # one boundary layer (1), then the one-row final layer (2); with Q and K scaled
        # by 6 every layer takes the shifted softmax
        m = 5
        n_key = 2 * (n - m) // 3
        sched = PruneSchedule(l1=1, l2=4, l3=5, r=0.5, alpha=0.5, total_layers=3,
                              n_key=n_key, n_nonkey=n - m - n_key)
        for qk_scale, shift in ((1.0, False), (6.0, True)):
            model = scaled_qk(init_model(RunConfig(layers=3, heads=3, d_model=24, seed=n)),
                              qk_scale)
            assert [_needs_shift(model, layer) for layer in range(3)] == [shift] * 3
            inp = build_prefill_input(model, make_stream(n_key, n - m - n_key, 8, seed=n),
                                      make_text(m, 8))
            monkeypatch.setattr(toy_llm, "_usable_cpus", lambda: 1)
            monkeypatch.setattr(toy_llm, "_head_pool", None)  # one CPU submits nothing
            want = prefill(model, inp, sched)
            monkeypatch.undo()
            assert want.layer_lengths[0] == n and 1 < want.layer_lengths[1] < n
            monkeypatch.setattr(toy_llm, "_CHUNK_SCORES", 1)  # hand over even the smallest call
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # workers interleave as often as they can
            try:
                for cpus in (2, 3, 8):
                    monkeypatch.setattr(toy_llm, "_usable_cpus", lambda: cpus)
                    got = prefill(model, inp, sched)
                    assert got.layer_lengths == want.layer_lengths
                    assert_same_cache(got.cache, want.cache)
                    assert np.array_equal(got.final_logits, want.final_logits)
            finally:
                sys.setswitchinterval(interval)
            monkeypatch.undo()


@functools.cache
def small_model(heads, d_model, seed):
    return init_model(RunConfig(layers=2, heads=heads, d_model=d_model, seed=seed))


class TestSoftmaxShift:
    def test_fast_on_the_mid_and_criterion_8_models_shifted_at_d_256(self):
        mid = RunConfig(k=6, layers=12, heads=4, d_model=128, layer_boundaries=(3, 6, 9))
        crit8 = RunConfig(k=4, layers=8, heads=2, d_model=32, layer_boundaries=(2, 4, 6))
        wide = RunConfig(layers=12, heads=4, d_model=256)
        for cfg, shift in ((mid, False), (crit8, False), (wide, True)):
            for seed in (cfg.seed, 1234):
                model = init_model(config_with(cfg, seed=seed))
                assert [_needs_shift(model, layer) for layer in range(model.layers)] == (
                    [shift] * model.layers)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(shape=st.sampled_from([(1, 8), (2, 32), (8, 16), (4, 128), (4, 256)]),
           seed=st.integers(0, 2), row_seed=st.integers(0, 2**32),
           exponent=st.floats(-6.0, 6.0), nonzero=st.integers(1, 256))
    def test_every_score_is_within_the_bound(self, shape, seed, row_seed, exponent, nonzero):
        """Rows of any scale and any number of nonzero entries, and the two rows whose
        head-0 score is largest, RMS-normed by _rms_norm, through real weights."""
        heads, d = shape
        model = small_model(heads, d, seed)
        x = Rng64(row_seed).next_unit_array(8 * d).reshape(8, d) * 10.0**exponent
        x[:, nonzero:] = 0.0
        hd = model.head_dim
        for layer in range(model.layers):
            wq, wk, _ = qkv_weights(model, layer)
            u, _, vt = np.linalg.svd(wq[:, :hd] @ wk[:, :hd].T)  # top singular pair
            h = _rms_norm(np.concatenate([x, u[:, :1].T, vt[:1]]))
            q, k = _split_heads(h @ wq / math.sqrt(hd), heads), _split_heads(h @ wk, heads)
            scores = q @ k.transpose(0, 2, 1)
            assert float(np.max(np.abs(scores))) <= _score_bound(model, layer)

    def test_scores_past_exps_range_take_the_shifted_path(self):
        # Q and K scaled by 30: real scores pass 709, where exp overflows to inf
        model = scaled_qk(init_model(RunConfig(layers=4, heads=2, d_model=32, seed=5)), 30.0)
        inp = build_prefill_input(model, make_stream(40, 20, 8, seed=3), make_text(5, 8, seed=4))
        wq, wk, _ = qkv_weights(model, 0)
        h = _rms_norm(inp.x)
        q = _split_heads(h @ wq / math.sqrt(model.head_dim), 2)
        assert float(np.max(q @ _split_heads(h @ wk, 2).transpose(0, 2, 1))) > 709.0
        assert all(_needs_shift(model, layer) for layer in range(model.layers))
        sched = PruneSchedule(l1=1, l2=2, l3=3, r=0.5, alpha=0.5, total_layers=4,
                              n_key=40, n_nonkey=20)
        res = prefill(model, inp, sched)
        assert np.all(np.isfinite(res.final_logits))
        assert_matches_dense_prefill(model, inp, sched)
        for cache in (res.cache, apply_kv_policy(res.cache, sched.l1)):
            out = decode(model, cache, 9, res.final_logits)
            want = reference_decode(model, cache, 9, res.final_logits)
            assert np.all(np.isfinite(out.logits))
            assert np.array_equal(out.tokens, want.tokens)
            for name in ("logits", "attn_split"):
                assert float(np.max(np.abs(getattr(out, name) - getattr(want, name)))) <= 1e-12


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "this BLAS"


@pytest.mark.parametrize("k_dim, n_out, column_block", [
    (128, 128, True),   # a Q/K/V projection: d_model in, a column block of w_qkv
    (128, 512, False),  # the MLP's w_in
    (128, 128, False),  # Wo
    (512, 128, False),  # the MLP's w_out: K is the hidden width
])
def test_gemm_row_pieces_give_the_rows_of_the_whole_product(k_dim, n_out, column_block):
    """Prefill's row pieces (toy_llm._by_rows) give its old bits only if a gemm of a
    piece of >= _ROWS rows equals those rows of the whole product, bit for bit."""
    rng = Rng64(k_dim + n_out)
    w = rng.next_unit_array(k_dim * 3 * n_out).reshape(k_dim, 3 * n_out)
    w = w[:, n_out : 2 * n_out] if column_block else np.ascontiguousarray(w[:, :n_out])
    for n in (2 * toy_llm._ROWS, 2 * toy_llm._ROWS + 17, 1100, 2080):  # 2 to 8 pieces
        a = rng.next_unit_array(n * k_dim).reshape(n, k_dim)
        whole = a @ w
        pieces = []
        toy_llm._by_rows(n, pieces.append)  # the pieces prefill cuts n rows into
        for r in pieces:
            rows = len(whole[r])
            assert rows >= toy_llm._ROWS
            assert np.array_equal(a[r] @ w, whole[r]), (
                f"{_blas_name()}: a {rows}-row piece of an ({n}, {k_dim}) @ ({k_dim}, "
                f"{n_out}) gemm differs from those rows of the whole product, so prefill's "
                "row pieces would change its bits")


class TestKvPolicyAndDecode:
    def _prefilled(self, layers=6, seed=11, n_key=12, n_nonkey=6, m=4):
        cfg = RunConfig(layers=layers, heads=2, d_model=16, seed=seed)
        model = init_model(cfg)
        stream = make_stream(n_key, n_nonkey, 8, seed=seed + 1)
        inp = build_prefill_input(model, stream, make_text(m, 8, seed=seed + 2))
        sched = PruneSchedule(
            l1=2, l2=4, l3=5, r=0.5, alpha=0.5, total_layers=layers,
            n_key=n_key, n_nonkey=n_nonkey,
        )
        return model, prefill(model, inp, sched), sched

    def test_drop_matches_neg_inf_masking(self):
        model, res, sched = self._prefilled()
        out_a = decode(model, apply_kv_policy(res.cache, sched.l1), 6, res.final_logits)
        out_b = reference_decode(model, res.cache, 6, res.final_logits, mask_from=sched.l1)
        assert np.array_equal(out_a.tokens, out_b.tokens)
        assert float(np.max(np.abs(out_a.logits - out_b.logits))) <= 1e-9

    def test_decode_leaves_cache_unchanged(self):
        model, res, sched = self._prefilled()
        cache = apply_kv_policy(res.cache, sched.l1)
        counts = cache.entry_counts()
        first = decode(model, cache, 6, res.final_logits)
        assert cache.entry_counts() == counts
        second = decode(model, cache, 6, res.final_logits)
        assert cache.entry_counts() == counts
        assert np.array_equal(first.tokens, second.tokens)
        assert np.array_equal(first.logits, second.logits)

    def test_kept_layers_are_shared_not_copied(self):
        model, res, sched = self._prefilled()
        drop = sched.l1
        assert 0 < drop < model.layers
        cache = apply_kv_policy(res.cache, drop)
        for layer in range(model.layers):
            for name in ("k", "v"):
                shared = np.shares_memory(getattr(cache, name)[layer],
                                          getattr(res.cache, name)[layer])
                assert shared == (layer < drop)
        out = decode(model, cache, 6, res.final_logits)
        want = decode(model, copy.deepcopy(cache), 6, res.final_logits)
        assert np.array_equal(out.tokens, want.tokens)
        assert np.array_equal(out.logits, want.logits)
        assert np.array_equal(out.attn_split, want.attn_split)

    def test_policy_off_is_bitwise_noop(self):
        model, res, _ = self._prefilled()
        plain = apply_kv_policy(res.cache, model.layers)
        out_a = decode(model, plain, 5, res.final_logits)
        out_b = decode(model, apply_kv_policy(res.cache, model.layers), 5, res.final_logits)
        assert np.array_equal(out_a.tokens, out_b.tokens)
        assert np.array_equal(out_a.logits, out_b.logits)

    def test_deterministic_tokens(self):
        model, res, sched = self._prefilled(seed=21)
        a = decode(model, apply_kv_policy(res.cache, sched.l1), 8, res.final_logits)
        model2, res2, sched2 = self._prefilled(seed=21)
        b = decode(model2, apply_kv_policy(res2.cache, sched2.l1), 8, res2.final_logits)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.logits, b.logits)

    def test_causality_prefix_stable(self):
        model, res, sched = self._prefilled(seed=31)
        long = decode(model, apply_kv_policy(res.cache, sched.l1), 7, res.final_logits)
        short = decode(model, apply_kv_policy(res.cache, sched.l1), 4, res.final_logits)
        assert np.array_equal(long.tokens[:4], short.tokens)
        assert np.array_equal(long.logits[:4], short.logits)

    def test_steps_validation(self):
        model, res, sched = self._prefilled()
        with pytest.raises(ValueError):
            decode(model, apply_kv_policy(res.cache, sched.l1), 0, res.final_logits)

    def test_token_count_matches_steps(self):
        model, res, sched = self._prefilled()
        out = decode(model, apply_kv_policy(res.cache, sched.l1), 9, res.final_logits)
        assert out.tokens.shape == (9,)
        assert out.logits.shape[0] == 9

    @pytest.mark.parametrize("shape", [(255,), (257,), (1, 256), ()])
    def test_first_logits_shape_checked_before_any_forward(self, shape, monkeypatch):
        model, res, sched = self._prefilled()

        def forward(*args):
            raise AssertionError("a forward ran")

        monkeypatch.setattr(toy_llm, "_rms_row", forward)
        with pytest.raises(ValueError, match="first_logits"):
            decode(model, apply_kv_policy(res.cache, sched.l1), 4, np.zeros(shape))


def reference_decode(model, cache, steps, first_logits, mask_from=None):
    """Per-head decode as it ran before the fused layer-step: three projections,
    split-head views of whole-width buffers, concatenated scores, head-mean sums.

    Cached visual entries of layers from mask_from upward stay in place but get
    -inf attention scores: the masking that the KV policy's drop must equal.
    """
    mask_from = model.layers if mask_from is None else mask_from
    tokens = [int(np.argmax(first_logits))]
    logits_rows = [np.asarray(first_logits, dtype=np.float64)]
    attn_split = np.zeros((steps - 1, model.layers, 2))
    gen_k = np.empty((model.layers, steps - 1, model.d_model))
    gen_v = np.empty((model.layers, steps - 1, model.d_model))
    scale = math.sqrt(model.head_dim)
    for s in range(steps - 1):
        pos = cache.prompt_len + s
        x = model.embed[tokens[-1] % model.vocab] + sinusoidal_positions(
            np.array([pos]), model.d_model
        )[0]
        for layer in range(model.layers):
            h = _rms_norm(x[None, :])
            wq, wk, wv = qkv_weights(model, layer)
            q = _split_heads(h @ wq, model.heads)
            gen_k[layer, s] = (h @ wk)[0]
            gen_v[layer, s] = (h @ wv)[0]
            c = cache.k[layer].shape[0]
            n_vis = c - cache.text_len  # cached entries [:n_vis] are visual, the rest text
            k_c = _split_heads(cache.k[layer], model.heads)
            k_g = _split_heads(gen_k[layer, : s + 1], model.heads)
            scores = np.concatenate(
                [q @ k_c.transpose(0, 2, 1), q @ k_g.transpose(0, 2, 1)], axis=-1
            )[:, 0, :] / scale
            if layer >= mask_from:
                scores[:, :n_vis] = -np.inf
            scores -= scores.max(axis=-1, keepdims=True)
            p = np.exp(scores)
            p /= p.sum(axis=-1, keepdims=True)
            head_mean = p[:, :c].mean(axis=0)
            attn_split[s, layer, 0] = head_mean[:n_vis].sum()
            attn_split[s, layer, 1] = head_mean[n_vis:].sum()
            out = p[:, None, :c] @ _split_heads(cache.v[layer], model.heads)
            out += p[:, None, c:] @ _split_heads(gen_v[layer, : s + 1], model.heads)
            x = x + (out.reshape(1, model.d_model) @ model.wo[layer])[0]
            hidden = _rms_norm(x[None, :]) @ model.w_in[layer]
            x = x + (np.maximum(hidden, 0.0) @ model.w_out[layer])[0]
        logits = _rms_norm(x[None, :])[0] @ model.unembed
        tokens.append(int(np.argmax(logits)))
        logits_rows.append(logits)
    return toy_llm.DecodeOutput(
        tokens=np.array(tokens, dtype=np.int64),
        logits=np.stack(logits_rows),
        attn_split=attn_split,
    )


@pytest.mark.parametrize("steps", [1, 2, 17])
@pytest.mark.parametrize("kind", ["masked", "dropped", "text_only"])
@pytest.mark.parametrize("heads, d_model", [(1, 8), (2, 16), (4, 16), (4, 4), (1, 1)])
def test_decode_matches_per_head_reference(heads, d_model, kind, steps):
    """decode of a cache whose visual entries were dropped from layer 2 ("masked" and
    "dropped") or from every layer ("text_only"), against the reference decode of that
    cache, or for "masked" of the prefill cache with those entries masked."""
    # (4, 4) and (1, 1) have head_dim 1
    layers = 4
    model = init_model(RunConfig(layers=layers, heads=heads, d_model=d_model, seed=heads + d_model))
    inp = build_prefill_input(model, make_stream(10, 5, 8, seed=3), make_text(3, 8, seed=4))
    sched = PruneSchedule(l1=1, l2=2, l3=3, r=0.5, alpha=0.5, total_layers=layers,
                          n_key=10, n_nonkey=5)
    res = prefill(model, inp, sched)
    drop = 0 if kind == "text_only" else 2
    cache = apply_kv_policy(res.cache, drop)
    out = decode(model, cache, steps, res.final_logits)
    if kind == "masked":
        want = reference_decode(model, res.cache, steps, res.final_logits, mask_from=drop)
    else:
        want = reference_decode(model, cache, steps, res.final_logits)
    assert np.array_equal(out.tokens, want.tokens)
    for name in ("logits", "attn_split"):
        got, ref = getattr(out, name), getattr(want, name)
        assert got.shape == ref.shape
        assert float(np.max(np.abs(got - ref), initial=0.0)) <= 1e-12


# One toy simulation; prints digests of both decodes, the BLAS thread count
# (None where OpenBLAS cannot be asked) and the CPUs the process may use (None
# where that cannot be asked). With the argument "one-cpu" it first pins itself
# to one CPU, so prefill attention runs all heads in one chunk.
_THREAD_RUN = """
import ctypes, hashlib, json, os, sys
if sys.argv[1:] == ["one-cpu"] and hasattr(os, "sched_setaffinity"):
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
from metok.data_io import RunConfig, gen_synthetic
from metok.pipeline import run_simulation

def blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None

frames, text = gen_synthetic(16, 8, 8, 32, seed=5, num_segments=4)
cfg = RunConfig(k=4, layers=4, heads=4, d_model=64, layer_boundaries=(1, 2, 3))
res = run_simulation(frames, text, cfg, steps=6)
print(json.dumps({"threads": blas_threads(), "cpus": cpus, "runs": [
    {"tokens": out.tokens.tolist(),
     "logits": hashlib.sha256(out.logits.tobytes()).hexdigest(),
     "lengths": trace.layer_lengths}
    for out, trace in ((res.decode_output, res.compressed),
                       (res.baseline_decode_output, res.baseline))]}))
"""


def test_simulation_bit_identical_across_blas_thread_counts():
    src = str(Path(__file__).resolve().parents[1] / "src")
    results = []
    for threads, pin in (("1", []), ("2", []), ("1", ["one-cpu"])):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_RUN, *pin], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        got = json.loads(proc.stdout)
        assert got["threads"] in (None, int(threads))
        if pin and got["cpus"] != 1:
            continue  # affinity cannot be set here, so the one-CPU case is skipped
        results.append(got["runs"])
    assert all(runs == results[0] for runs in results[1:])
    # the compressed run pruned, so both prefill paths were exercised
    assert results[0][0]["lengths"] != results[0][1]["lengths"]


def test_concurrent_toy_runs_match_serial_ones(monkeypatch):
    # two toy runs at once from library callers' threads, each handing head chunks
    # of every attention call to the one shared head pool
    monkeypatch.setattr(toy_llm, "_CHUNK_SCORES", 1)
    monkeypatch.setattr(toy_llm, "_usable_cpus", lambda: 2)
    frames, text = gen_synthetic(12, 6, 6, 16, seed=8, num_segments=3)
    cfgs = [RunConfig(k=3, layers=4, heads=4, d_model=32, layer_boundaries=(1, 2, 3), r=r)
            for r in (0.4, 0.7)]

    def traced(cfg):
        return run_simulation(frames, text, cfg, steps=5).trace_dict()

    serial = [traced(cfg) for cfg in cfgs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(traced, cfgs)) == serial
    assert serial[0] != serial[1] and "logits_digest" in serial[0]["baseline_decode"]


class TestAttentionRatios:
    def test_dropped_layers_have_zero_visual(self):
        cfg = RunConfig(layers=6, heads=2, d_model=16, seed=4)
        model = init_model(cfg)
        stream = make_stream(12, 6, 8)
        inp = build_prefill_input(model, stream, make_text(4, 8))
        sched = PruneSchedule(
            l1=2, l2=4, l3=5, r=0.5, alpha=0.5, total_layers=6, n_key=12, n_nonkey=6
        )
        res = prefill(model, inp, sched)
        out = decode(model, apply_kv_policy(res.cache, sched.l1), 5, res.final_logits)
        ratios = attention_ratio_trace(out)
        assert np.allclose(ratios.sum(axis=-1), 1.0, atol=1e-12)
        for layer in range(sched.l1, 6):
            assert ratios[layer, 0] == 0.0
            assert ratios[layer, 1] == 1.0

    def test_uniform_attention_mass_proportional_to_counts(self):
        cfg = RunConfig(layers=2, heads=2, d_model=16, seed=6)
        model = init_model(cfg)
        for layer in range(2):
            model.w_qkv[layer][:, :16] = 0.0  # zero Q
        stream = make_stream(30, 0, 8)
        inp = build_prefill_input(model, stream, make_text(10, 8))
        res = prefill(model, inp, disabled_schedule(2))
        out = decode(model, apply_kv_policy(res.cache, 2), 2, res.final_logits)
        ratios = attention_ratio_trace(out)
        assert ratios[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert ratios[0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_requires_a_forward(self):
        model, = (init_model(RunConfig(layers=2, heads=2, d_model=16)),)
        stream = make_stream(4, 0, 8)
        inp = build_prefill_input(model, stream, make_text(2, 8))
        res = prefill(model, inp, disabled_schedule(2))
        out = decode(model, apply_kv_policy(res.cache, 2), 1, res.final_logits)
        with pytest.raises(ValueError):
            attention_ratio_trace(out)


class TestPositionalEncoding:
    def test_odd_width(self):
        pe = sinusoidal_positions(np.arange(4), 7)
        assert pe.shape == (4, 7)
        assert np.all(np.isfinite(pe))

    def test_original_ids_survive_pruning(self):
        # the same position id encodes identically whether or not others were pruned
        pe_all = sinusoidal_positions(np.arange(10), 16)
        pe_some = sinusoidal_positions(np.array([0, 3, 7]), 16)
        assert np.array_equal(pe_some, pe_all[[0, 3, 7]])

    def test_full_pipeline_smoke(self):
        emb, text = gen_synthetic(8, 4, 4, 12, seed=13, num_segments=2, text_len=5)
        cfg = RunConfig(k=2, layers=6, heads=2, d_model=16, layer_boundaries=(2, 4, 5), seed=13)
        stream, _ = run_vision_stage(emb, text, cfg)
        model = init_model(cfg)
        inp = build_prefill_input(model, stream, text)
        n_key, n_nonkey = stream.group_counts()
        sched = PruneSchedule.from_config(cfg, n_key, n_nonkey)
        res = prefill(model, inp, sched)
        out = decode(model, apply_kv_policy(res.cache, sched.l1), 4, res.final_logits)
        assert out.tokens.shape == (4,)
