import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metok.kernels import (
    Rng64,
    ZeroNormError,
    avg_pool_2d,
    ceil_scaled,
    cosines,
    top_k_stable,
)


def cosine(a, b):
    """Oracle of kernels.cosines: the cosine of two equal-length 1-D vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("cosine expects 1-D vectors")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("zero-norm input (degenerate embedding)")
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb)))


def next_unit(rng):
    """Scalar oracle of Rng64.next_unit_array: the top 53 bits of one raw output, in [-1, 1)."""
    return (rng.next_raw() >> 11) * 2.0**-53 * 2.0 - 1.0


class TestCosine:
    def test_identical_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        # 24 / (5 * 5)
        assert cosine(np.array([3.0, 4.0]), np.array([4.0, 3.0])) == pytest.approx(0.96, abs=1e-15)

    def test_scale_invariance(self):
        rng = Rng64(11)
        for _ in range(50):
            a = rng.next_unit_array(8)
            b = rng.next_unit_array(8)
            c = abs(next_unit(rng)) * 10 + 0.01
            assert cosine(c * a, b) == pytest.approx(cosine(a, b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine(np.ones(3), np.ones(4))

    def test_zero_norm(self):
        with pytest.raises(ZeroNormError):
            cosine(np.zeros(3), np.ones(3))


class TestCosines:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(n=st.integers(0, 40), d=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-6.0, 6.0), pairing=st.sampled_from(["rows", "adjacent", "one", "parallel"]))
    def test_bit_identical_to_cosine(self, n, d, seed, scale, pairing):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n + 1, d)) * 10.0**scale
        if pairing == "rows":
            a, b = m[:-1], rng.standard_normal((n, d))
        elif pairing == "adjacent":      # segment_events: a video's frame means
            a, b = m[:-1], m[1:]
        elif pairing == "one":           # score_relevance: every frame against the text
            a, b = m[:-1], np.broadcast_to(rng.standard_normal(d), (n, d))
        else:                            # cosines of +-1 up to rounding, so the clamp acts
            a = m[:-1]
            b = a * rng.choice([-3.0, -1.0, 0.5, 7.0], size=(n, 1))
        want = np.array([cosine(x, y) for x, y in zip(a, b)], dtype=np.float64)
        assert cosines(a, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("zero_in", ["a", "b"])
    def test_any_zero_norm_row_raises(self, zero_in):
        a, b = np.ones((3, 4)), np.ones((3, 4))
        (a if zero_in == "a" else b)[1] = 0.0
        with pytest.raises(ZeroNormError):
            cosines(a, b)


class TestAvgPool2d:
    def test_stride_one_identity(self):
        rng = Rng64(3)
        grid = rng.next_unit_array(24).reshape(4, 6, 1)
        assert np.array_equal(avg_pool_2d(grid, 1), grid)

    def test_two_by_two(self):
        out = avg_pool_2d(np.array([[1.0, 2.0], [3.0, 4.0]])[..., None], 2)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 2.5

    def test_constant_grid(self):
        out = avg_pool_2d(np.ones((4, 4, 1)), 3)
        assert out.shape == (2, 2, 1)
        assert np.all(out == 1.0)

    def test_output_dims_ceiling(self):
        out = avg_pool_2d(np.ones((5, 7, 1)), 3)
        assert out.shape == (2, 3, 1)

    def test_stride_larger_than_grid(self):
        # a frame never vanishes entirely
        out = avg_pool_2d(np.ones((2, 2, 1)), 5)
        assert out.shape == (1, 1, 1)

    def test_per_channel(self):
        grid = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)], axis=-1)
        out = avg_pool_2d(grid, 2)
        assert out.shape == (1, 1, 2)
        assert np.array_equal(out[0, 0], [1.0, 3.0])

    def test_edge_window_mean(self):
        # rightmost window of a 2x3 grid under stride 2 covers one column only
        grid = np.array([[1.0, 2.0, 30.0], [3.0, 4.0, 50.0]])[..., None]
        out = avg_pool_2d(grid, 2)
        assert out.shape == (1, 2, 1)
        assert out[0, 0, 0] == 2.5
        assert out[0, 1, 0] == 40.0

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            avg_pool_2d(np.ones((2, 2, 1)), 0)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2, 1)])
    def test_grid_not_h_w_d_is_refused(self, shape):
        with pytest.raises(ValueError, match=r"expected an \(h, w, d\) grid"):
            avg_pool_2d(np.ones(shape), 1)


class TestTopKStable:
    def test_tie_toward_smaller_index(self):
        assert top_k_stable(np.array([0.5, 0.9, 0.5]), 2).tolist() == [0, 1]

    def test_k_zero(self):
        assert top_k_stable(np.array([1.0, 2.0]), 0).tolist() == []

    def test_k_full(self):
        assert top_k_stable(np.array([3.0, 1.0, 2.0]), 3).tolist() == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k_stable(np.array([1.0]), 2)

    @pytest.mark.parametrize("n", [17, 64, 300])
    def test_ties_past_the_small_array_sorts(self, n):
        # numpy's quicksort is an insertion sort, which keeps ties in order, up to 16 entries
        scores = np.round(Rng64(n).next_unit_array(n) * 2) / 2
        want = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[: n // 2])
        assert top_k_stable(scores, n // 2).tolist() == want

    def test_nesting_property(self):
        rng = Rng64(7)
        for _ in range(200):
            n = 1 + (rng.next_raw() % 12)
            # coarse values force plenty of ties
            scores = np.round(rng.next_unit_array(n) * 2) / 2
            prev: set[int] = set()
            for k in range(n + 1):
                cur = set(top_k_stable(scores, k).tolist())
                assert len(cur) == k
                assert prev <= cur
                prev = cur


class TestRng64:
    def test_reference_stream_seed_zero(self):
        r = Rng64(0)
        assert r.next_raw() == 0xE220A8397B1DCDAF
        assert r.next_raw() == 0x6E789E6AA1B965F4
        assert r.next_raw() == 0x06C45D188009454F

    def test_same_seed_same_stream(self):
        a = [Rng64(42).next_raw() for _ in range(10)]
        b = [Rng64(42).next_raw() for _ in range(10)]
        assert a == b

    def test_different_seeds_differ(self):
        assert Rng64(0).next_raw() != Rng64(1).next_raw()

    def test_unit_range(self):
        r = Rng64(9)
        for _ in range(1000):
            v = next_unit(r)
            assert -1.0 <= v < 1.0

    def test_vectorized_matches_scalar(self):
        a = Rng64(123)
        b = Rng64(123)
        block = a.next_unit_array(257)
        singles = np.array([next_unit(b) for _ in range(257)])
        assert np.array_equal(block, singles)
        assert a.state == b.state
        # streams continue identically after the block
        assert a.next_raw() == b.next_raw()


class TestCeilScaled:
    def test_exact_products(self):
        # 0.275 * 40 is 11.000000000000002 in floats; the true product is 11
        assert ceil_scaled(0.5 * 0.55, 40) == 11
        assert ceil_scaled(0.2, 5) == 1
        assert ceil_scaled(1.0, 17) == 17

    def test_fractional_rounds_up(self):
        assert ceil_scaled(0.55 * 0.55, 100) == 31
        assert ceil_scaled(0.45, 4) == 2

    def test_zero(self):
        assert ceil_scaled(0.0, 100) == 0
        assert ceil_scaled(0.3, 0) == 0
