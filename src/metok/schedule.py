"""Layer-wise retention schedule, attention-guided selection, and the decode KV rule.

Retention ratios are expressed against each group's ORIGINAL count entering the
model. Key-group tokens step 1 -> r -> r^2 -> 0 across the boundaries
(l1, l2, l3); non-key tokens step 1 -> alpha*r -> 0 and are gone from l2 on.
A boundary layer prunes its own input: the "drop" branch applies at and above
the boundary, so retention is right-continuous in the layer index.

The decode stage drops cached visual entries from the configured l1 upward
(kv_drop_layer), whether or not the prefill stage prunes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import RunConfig
from .kernels import ceil_scaled, top_k_stable

__all__ = [
    "PruneSchedule",
    "kv_drop_layer",
    "retention_ratio",
    "select_at_boundary",
    "token_importance",
]

GROUPS = ("key", "non_key")


@dataclass(frozen=True)
class PruneSchedule:
    """Boundaries, pruning factor, key ratio, and the origin counts they apply to."""

    l1: int
    l2: int
    l3: int
    r: float
    alpha: float
    total_layers: int
    n_key: int = 0
    n_nonkey: int = 0

    def __post_init__(self):
        if not 0 <= self.l1 < self.l2 < self.l3:
            raise ValueError(f"need 0 <= l1 < l2 < l3, got {(self.l1, self.l2, self.l3)}")
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"r must be in (0, 1], got {self.r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.total_layers < 1:
            raise ValueError("total_layers must be >= 1")
        if self.n_key < 0 or self.n_nonkey < 0:
            raise ValueError("origin counts must be non-negative")

    @classmethod
    def from_config(cls, cfg: RunConfig, n_key: int, n_nonkey: int) -> "PruneSchedule":
        l1, l2, l3 = cfg.layer_boundaries
        if not cfg.stage_enabled("prefill"):
            # boundaries beyond the stack disable every tier
            l1, l2, l3 = cfg.layers, cfg.layers + 1, cfg.layers + 2
        return cls(
            l1=l1, l2=l2, l3=l3, r=cfg.r, alpha=cfg.alpha,
            total_layers=cfg.layers, n_key=n_key, n_nonkey=n_nonkey,
        )

    def origin(self, group: str) -> int:
        return self.n_key if group == "key" else self.n_nonkey

    def keep_count(self, layer: int, group: str) -> int:
        """Tokens of the group that survive at the given layer's input."""
        return ceil_scaled(retention_ratio(layer, group, self), self.origin(group))

    def boundary_layers(self) -> tuple[int, ...]:
        """Boundaries that fall inside the stack, in forward order."""
        return tuple(b for b in (self.l1, self.l2, self.l3) if b < self.total_layers)


def kv_drop_layer(cfg: RunConfig) -> int:
    """First layer whose cached visual entries the decode stage removes (cfg.layers: none)."""
    return cfg.layer_boundaries[0] if cfg.stage_enabled("decode") else cfg.layers


def retention_ratio(layer: int, group: str, sched: PruneSchedule) -> float:
    """Fraction of the group's original tokens alive at the given layer's input."""
    if not 0 <= layer < sched.total_layers:
        raise ValueError(f"layer {layer} out of range [0, {sched.total_layers})")
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
    if layer < sched.l1:
        return 1.0
    if group == "key":
        if layer < sched.l2:
            return sched.r
        if layer < sched.l3:
            return sched.r * sched.r
        return 0.0
    if layer < sched.l2:
        return sched.alpha * sched.r
    return 0.0


def token_importance(attn: np.ndarray, visual_positions: np.ndarray) -> np.ndarray:
    """Importance of each visual token: attention it receives from the text queries.

    attn is the (heads, text_queries, keys) block of post-softmax text rows; the
    score of visual token j is the mean over heads and text rows of attn[., ., j].
    Gathering each token's values heads fastest, then text rows, fixes the sum's bits.
    """
    attn = np.asarray(attn, dtype=np.float64)
    if attn.ndim != 3:
        raise ValueError("attn must be (heads, text_queries, keys)")
    if attn.shape[1] == 0:
        raise ValueError("no text query rows")
    cols = np.take(attn.transpose(2, 1, 0), np.asarray(visual_positions, dtype=np.int64), axis=0)
    return cols.mean(axis=(1, 2))


def select_at_boundary(
    scores: np.ndarray,
    survivor_ids: np.ndarray,
    origin_count: int,
    ratio: float,
) -> np.ndarray:
    """Keep the top ceil(ratio*origin) of the surviving tokens, by score.

    scores align with survivor_ids (the group's currently surviving original
    positions, ascending). Ties break toward the earlier position; the result
    is ascending. Selection at a later boundary only ever sees prior survivors,
    which is what makes keep sets nest.
    """
    scores = np.asarray(scores, dtype=np.float64)
    survivor_ids = np.asarray(survivor_ids, dtype=np.int64)
    if scores.shape != survivor_ids.shape:
        raise ValueError("scores and survivor_ids must align")
    keep = ceil_scaled(ratio, origin_count)
    if keep > scores.shape[0]:
        raise ValueError(
            f"schedule wants {keep} tokens but only {scores.shape[0]} survive"
        )
    return survivor_ids[top_k_stable(scores, keep)]

