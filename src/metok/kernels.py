"""Dense numeric kernels and the deterministic PRNG the rest of the pipeline builds on.

Everything here is a pure function of its inputs (the RNG advances an explicit
state value), computes in 64-bit floats, and must produce bit-identical results
across runs, platforms, and thread counts.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Rng64",
    "ZeroNormError",
    "avg_pool_2d",
    "ceil_scaled",
    "cosines",
    "top_k_stable",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class ZeroNormError(ValueError):
    """A vector that must have nonzero norm is (numerically) zero."""


class Rng64:
    """SplitMix64 generator: 64-bit state, six-line update, published test vectors.

    The raw stream from seed 0 begins 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
    0x06C45D188009454F; any implementation of the same constants matches it
    bit for bit, which is the whole point of choosing this generator.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_raw(self) -> int:
        """Advance the state and return the next raw 64-bit output."""
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_unit_array(self, n: int) -> np.ndarray:
        """n uniform draws in [-1, 1), each the top 53 bits of one next_raw() output.

        SplitMix64 state advances linearly (state_i = state_0 + i*gamma mod 2^64),
        so a block of outputs is the mix function applied elementwise.
        """
        if n < 0:
            raise ValueError(f"negative draw count {n}")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        shifted = np.empty_like(z)  # the one buffer every xor-shift step reuses
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        self.state = (self.state + n * _GAMMA) & _MASK64
        z >>= np.uint64(11)
        unit = z.astype(np.float64)
        unit *= 2.0**-52  # exact: the same bits as * 2**-53 * 2
        unit -= 1.0
        return unit


def cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row pair of two (n, d) float64 arrays, clamped to [-1, 1]; a zero-norm
    row raises ZeroNormError."""
    def dots(x, y):  # one BLAS vector dot per row, the one np.dot runs on two 1-D vectors
        return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
    na, nb = np.sqrt(dots(a, a)), np.sqrt(dots(b, b))
    if not (na.all() and nb.all()):
        raise ZeroNormError("zero-norm input (degenerate embedding)")
    return np.fmin(1.0, np.fmax(-1.0, dots(a, b) / (na * nb)))  # NaN clamps to -1


def avg_pool_2d(frame: np.ndarray, stride: int) -> np.ndarray:
    """Average-pool an (h, w, d) grid with square windows of the given stride.

    Output dims are ceil(h/stride) x ceil(w/stride). Edge windows average only
    the cells that fall inside the grid (no padding), so a constant grid pools
    to the same constant and stride 1 is the identity.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 3:
        raise ValueError("expected an (h, w, d) grid")
    h, w = frame.shape[:2]
    if stride == 1:
        return frame.copy()
    row_starts = np.arange(0, h, stride)
    col_starts = np.arange(0, w, stride)
    sums = np.add.reduceat(np.add.reduceat(frame, row_starts, axis=0), col_starts, axis=1)
    row_sizes = np.minimum(row_starts + stride, h) - row_starts
    col_sizes = np.minimum(col_starts + stride, w) - col_starts
    return sums / np.outer(row_sizes, col_sizes).astype(np.float64)[:, :, None]


def top_k_stable(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken toward the smaller index.

    The result is sorted ascending. top_k_stable(s, k) is always a subset of
    top_k_stable(s, k+1).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D")
    if k < 0 or k > scores.shape[0]:
        raise ValueError(f"k={k} out of range for {scores.shape[0]} scores")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def ceil_scaled(ratio: float, n: int) -> int:
    """ceil(ratio * n) computed robustly against float representation error.

    Ratios come from decimal config values (so true products hit integers like
    0.275 * 40 == 11 exactly); the epsilon guard keeps a 1-ulp overshoot from
    bumping the ceiling to the next integer.
    """
    if n < 0:
        raise ValueError(f"negative count {n}")
    return max(0, math.ceil(ratio * n - 1e-9))
