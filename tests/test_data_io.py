import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metok.data_io import (
    BadMagicError,
    ConfigError,
    DimensionOverflowError,
    FrameEmbeddings,
    MebfError,
    RunConfig,
    TextEmbedding,
    TruncatedPayloadError,
    gen_synthetic,
    load_config,
    read_embeddings,
    write_embeddings,
)
from metok.kernels import Rng64, cosine


def frame_means(emb):
    return emb.tokens.mean(axis=1)


def adjacent_sims(emb):
    means = frame_means(emb)
    return [cosine(means[i], means[i + 1]) for i in range(emb.num_frames - 1)]


class TestMebfRoundTrip:
    def test_frames_round_trip(self, tmp_path):
        rng = Rng64(4)
        tokens = rng.next_unit_array(3 * 6 * 5).reshape(3, 6, 5)
        emb = FrameEmbeddings(tokens=tokens, grid_h=2, grid_w=3)
        p = tmp_path / "v.mebf"
        write_embeddings(emb, p)
        back = read_embeddings(p)
        assert isinstance(back, FrameEmbeddings)
        assert (back.num_frames, back.grid_h, back.grid_w, back.dim) == (3, 2, 3, 5)
        # lossless modulo one 64->32->64 quantization
        assert np.array_equal(back.tokens, tokens.astype(np.float32).astype(np.float64))

    def test_text_round_trip(self, tmp_path):
        text = TextEmbedding(vector=np.array([0.5, -1.25, 2.0]), token_ids=np.array([7, 0, 99]))
        p = tmp_path / "t.mebf"
        write_embeddings(text, p)
        back = read_embeddings(p)
        assert isinstance(back, TextEmbedding)
        assert np.array_equal(back.vector, text.vector)
        assert np.array_equal(back.token_ids, text.token_ids)

    def test_quantized_write_is_stable(self, tmp_path):
        emb, _ = gen_synthetic(2, 2, 2, 3, seed=1)
        p1, p2 = tmp_path / "a.mebf", tmp_path / "b.mebf"
        write_embeddings(emb, p1)
        write_embeddings(read_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMebfErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.mebf"
        p.write_bytes(b"XXXX" + bytes(30))
        with pytest.raises(BadMagicError):
            read_embeddings(p)

    def test_truncated_payload(self, tmp_path):
        emb, _ = gen_synthetic(2, 2, 2, 3, seed=1)
        p = tmp_path / "v.mebf"
        write_embeddings(emb, p)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(TruncatedPayloadError):
            read_embeddings(p)

    def test_dimension_overflow(self, tmp_path):
        import struct

        p = tmp_path / "v.mebf"
        header = struct.pack("<4sBB4I", b"MEBF", 1, 1, 2**20, 2**10, 2**10, 16)
        p.write_bytes(header + bytes(64))
        with pytest.raises(DimensionOverflowError):
            read_embeddings(p)

    def test_unknown_record_type(self, tmp_path):
        import struct

        p = tmp_path / "v.mebf"
        p.write_bytes(struct.pack("<4sBB", b"MEBF", 1, 9) + bytes(16))
        with pytest.raises(MebfError):
            read_embeddings(p)

    def test_trailing_bytes(self, tmp_path):
        emb, _ = gen_synthetic(1, 2, 2, 2, seed=0)
        p = tmp_path / "v.mebf"
        write_embeddings(emb, p)
        p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(MebfError):
            read_embeddings(p)


    def test_bad_magic_rejected_before_the_payload_is_read(self, tmp_path):
        p = tmp_path / "big.mebf"
        with open(p, "wb") as fh:  # sparse: 256 MiB on paper, no disk blocks
            fh.write(b"XXXX")
            fh.truncate(256 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(BadMagicError):
                read_embeddings(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_frame_read_peaks_near_its_float64_result(self, tmp_path):
        # ~12 MiB of float32 ending in a partial chunk; reading it whole and
        # then casting would peak at 3x the file size
        t, h, w, d = 48, 16, 16, 250
        p = tmp_path / "v.mebf"
        with open(p, "wb") as fh:
            fh.write(struct.pack("<4sBB4I", b"MEBF", 1, 1, t, h, w, d))
            np.linspace(-1.0, 1.0, t * h * w * d, dtype="<f4").tofile(fh)
        size = p.stat().st_size
        tracemalloc.start()
        try:
            emb = read_embeddings(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * size + (5 << 20)  # the float64 result, one 4 MiB chunk, 1 MiB spare
        want = np.fromfile(p, "<f4", offset=22).astype(np.float64)
        assert np.array_equal(emb.tokens.reshape(-1), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        emb, _ = gen_synthetic(1, 2, 2, 2, seed=0)
        p = tmp_path / "v.mebf"
        write_embeddings(emb, p)
        data = bytearray(p.read_bytes())
        data[-4:] = struct.pack("<f", bad)
        p.write_bytes(bytes(data))
        with pytest.raises(MebfError):
            read_embeddings(p)

    def test_zero_norm_text(self, tmp_path):
        p = tmp_path / "t.mebf"
        p.write_bytes(struct.pack("<4sBB2I", b"MEBF", 1, 2, 3, 1) + bytes(12) + bytes(4))
        with pytest.raises(MebfError):
            read_embeddings(p)


def _valid_files(tmp_path):
    emb, text = gen_synthetic(2, 2, 3, 4, seed=5, text_len=3)
    out = []
    for name, obj in (("v.mebf", emb), ("t.mebf", text)):
        write_embeddings(obj, tmp_path / name)
        out.append((tmp_path / name).read_bytes())
    return out


class TestMebfProperties:
    """Fixed-seed property runs, so the suite stays deterministic and fast."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(which=st.integers(0, 1), cut=st.integers(0, 200),
           flips=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 255)), max_size=4))
    def test_mutated_or_truncated_file_raises_only_mebf_errors(self, tmp_path, which, cut,
                                                               flips):
        data = bytearray(_valid_files(tmp_path)[which])
        for pos, xor in flips:
            data[pos % len(data)] ^= xor
        p = tmp_path / "m.mebf"
        p.write_bytes(bytes(data[: len(data) - cut % (len(data) + 1)]))
        try:
            read_embeddings(p)
        except MebfError:
            pass

    @settings(derandomize=True, max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
                           st.integers(1, 4)),
           data=st.data())
    def test_write_read_round_trip_within_one_quantisation(self, tmp_path, shape, data):
        t, h, w, d = shape
        values = data.draw(st.lists(st.floats(-3e38, 3e38), min_size=t * h * w * d,
                                    max_size=t * h * w * d))
        tokens = np.array(values).reshape(t, h * w, d)
        p = tmp_path / "v.mebf"
        write_embeddings(FrameEmbeddings(tokens=tokens, grid_h=h, grid_w=w), p)
        back = read_embeddings(p)
        assert (back.grid_h, back.grid_w) == (h, w)
        assert np.array_equal(back.tokens, tokens.astype(np.float32).astype(np.float64))
        ids = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
        vector = tokens.reshape(-1)[:d]
        if np.any(vector.astype(np.float32) != 0):
            write_embeddings(TextEmbedding(vector=vector, token_ids=np.array(ids)), p)
            back = read_embeddings(p)
            assert np.array_equal(back.vector, vector.astype(np.float32).astype(np.float64))
            assert back.token_ids.tolist() == ids


class TestGenSynthetic:
    def test_deterministic(self, tmp_path):
        a_emb, a_text = gen_synthetic(10, 3, 3, 8, seed=42, num_segments=2)
        b_emb, b_text = gen_synthetic(10, 3, 3, 8, seed=42, num_segments=2)
        assert np.array_equal(a_emb.tokens, b_emb.tokens)
        assert np.array_equal(a_text.vector, b_text.vector)
        assert np.array_equal(a_text.token_ids, b_text.token_ids)
        pa, pb = tmp_path / "a.mebf", tmp_path / "b.mebf"
        write_embeddings(a_emb, pa)
        write_embeddings(b_emb, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_output(self):
        a, _ = gen_synthetic(4, 2, 2, 6, seed=0)
        b, _ = gen_synthetic(4, 2, 2, 6, seed=1)
        assert not np.array_equal(a.tokens, b.tokens)

    def test_single_segment_has_no_dips(self):
        emb, _ = gen_synthetic(20, 2, 2, 16, seed=3, num_segments=1)
        sims = adjacent_sims(emb)
        # no planted boundary: min similarity stays close to max
        assert max(sims) - min(sims) < 0.1

    def test_planted_boundaries_are_smallest_sims(self):
        emb, _ = gen_synthetic(30, 2, 2, 16, seed=5, num_segments=3)
        sims = np.array(adjacent_sims(emb))
        # segments of 10: boundaries between frames 9|10 and 19|20
        assert set(np.argsort(sims)[:2].tolist()) == {9, 19}

    def test_text_lands_near_its_segment(self):
        emb, text = gen_synthetic(30, 2, 2, 16, seed=7, num_segments=3, text_segment=2)
        scores = [cosine(v, text.vector) for v in frame_means(emb)]
        assert int(np.argmax(scores)) >= 20

    def test_too_many_segments(self):
        with pytest.raises(ValueError):
            gen_synthetic(3, 2, 2, 4, seed=0, num_segments=5)


# the config file schema, as the README documents it
FILE_KEYS = (
    "k", "alpha", "beta", "s1", "s2", "r", "layer_boundaries",
    "layers", "heads", "d_model", "mlp_ratio", "seed", "disable_stages",
)
INT_KEYS = ("k", "s1", "s2", "layers", "heads", "d_model", "seed")


class TestRunConfig:
    def test_defaults_match_reference_regime(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        cfg = load_config(p)
        assert (cfg.alpha, cfg.beta, cfg.k, cfg.r) == (0.5, 0.4, 5, 0.76)
        assert (cfg.s1, cfg.s2) == (2, 3)
        assert cfg.layer_boundaries == (3, 10, 19)

    def test_fully_specified_round_trips(self, tmp_path):
        import json

        cfg = RunConfig(k=13, beta=0.45, r=0.55, layers=28, heads=28, d_model=3584)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({k: cfg.to_dict()[k] for k in (
            "k", "alpha", "beta", "s1", "s2", "r", "layer_boundaries",
            "layers", "heads", "d_model", "mlp_ratio", "seed", "disable_stages",
        )}))
        loaded = load_config(p)
        assert loaded == cfg

    def test_alpha_out_of_range(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"alpha": 1.5}')
        with pytest.raises(ConfigError):
            load_config(p)

    def test_boundary_ordering(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"layer_boundaries": [10, 3, 19]}')
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_key_warns(self, tmp_path):
        # runtime fields are set by CLI flags, so the file treats them as unknown
        p = tmp_path / "c.json"
        keys = ("bogus", "baseline_stride", "event_score", "frame_reduce")
        p.write_text(json.dumps({"bogus": 1, "baseline_stride": 2, "event_score": "max",
                                 "frame_reduce": "flatten"}))
        with pytest.warns(UserWarning) as record:
            cfg = load_config(p)
        assert cfg == RunConfig()
        for key in keys:
            assert any(repr(key) in str(w.message) for w in record), key

    @pytest.mark.parametrize("key,value", [
        (key, bad) for key in FILE_KEYS for bad in ("3", True)
    ] + [(key, 2.5) for key in INT_KEYS] + [
        ("layer_boundaries", [3, 10, 19.5]),
        ("layer_boundaries", [3, 10]),
        ("layer_boundaries", [3, 10, True]),
        ("disable_stages", ["vision", 1]),
    ])
    def test_wrong_type_is_config_error(self, tmp_path, key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            load_config(p)

    def test_non_utf8_file_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_bytes(b'{"k": "\xff"}')
        with pytest.raises(ConfigError):
            load_config(p)

    def test_to_dict_keys_are_the_documented_names(self):
        assert sorted(RunConfig().to_dict()) == sorted(FILE_KEYS + (
            "event_score", "frame_reduce", "baseline_stride",
        ))

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError):
            RunConfig(heads=5, d_model=64)

    def test_mlp_ratio_must_be_finite(self):
        # json.loads accepts Infinity, which would overflow the MLP width
        with pytest.raises(ConfigError):
            RunConfig(mlp_ratio=float("inf"))

    def test_s1_le_s2(self):
        with pytest.raises(ConfigError):
            RunConfig(s1=4, s2=2)

    def test_unknown_stage(self):
        with pytest.raises(ConfigError):
            RunConfig(disable_stages=("warp",))

    def test_boundaries_may_exceed_layer_count(self):
        # disables late pruning rather than failing
        cfg = RunConfig(layers=4, layer_boundaries=(3, 10, 19))
        assert cfg.layers == 4
