"""Vision-stage compression: event segmentation, key selection, adaptive pooling.

The stage splits a video into contiguous events at the deepest dips in
adjacent-frame similarity, ranks events and frames by text relevance, and then
pools each frame at a stride chosen by its key/non-key event and frame status.
Non-key events get their strides widened by 1/alpha so they are downsampled
harder than key events. Each pooled token keeps only its event's key flag, the
group tag the prefill schedule reads. plan_vision_stage fixes each frame's
stride and group flag and counts tokens by ceil(h/s) * ceil(w/s), pooling none;
adaptive_pool is the one materialiser: run_vision_stage pools its plan through
it, or through its alias uniform_stream for the bypass (the disabled stage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import EVENT_SCORES, ConfigError, FrameEmbeddings, RunConfig, TextEmbedding
from .kernels import avg_pool_2d, ceil_scaled, cosine, top_k_stable

__all__ = [
    "EventPartition",
    "TokenStream",
    "VisionPlan",
    "adaptive_pool",
    "plan_vision_stage",
    "run_vision_stage",
    "scaled_stride",
    "score_relevance",
    "segment_events",
    "select_keys",
]


@dataclass
class EventPartition:
    """Contiguous event structure over [0, T) plus relevance scores and key flags.

    boundaries[i] = j means there is a cut between frames j and j+1. Scores and
    flags start empty and are filled in by score_relevance / select_keys.
    """

    num_frames: int
    boundaries: tuple[int, ...]
    frame_scores: np.ndarray | None = None
    event_scores: np.ndarray | None = None
    key_event: np.ndarray | None = None
    key_frame: np.ndarray | None = None
    frame_means: np.ndarray | None = None   # kept by segment_events for score_relevance

    def __post_init__(self):
        self.boundaries = tuple(sorted(int(b) for b in self.boundaries))
        for b in self.boundaries:
            if not 0 <= b < self.num_frames - 1:
                raise ValueError(f"boundary {b} out of range for {self.num_frames} frames")
        if len(set(self.boundaries)) != len(self.boundaries):
            raise ValueError("duplicate boundaries")

    @property
    def num_events(self) -> int:
        return len(self.boundaries) + 1

    @property
    def events(self) -> list[range]:
        """Frame ranges of the events, in temporal order, covering [0, T) exactly."""
        starts = [0] + [b + 1 for b in self.boundaries]
        ends = [b + 1 for b in self.boundaries] + [self.num_frames]
        return [range(s, e) for s, e in zip(starts, ends)]


def _frame_means(v: FrameEmbeddings) -> np.ndarray:
    """(T, d) token mean of each frame, one frame converted at a time."""
    return np.array([v.frame_grid(i).reshape(-1, v.dim).mean(axis=0) for i in range(v.num_frames)])


def _adjacent_sims(v: FrameEmbeddings, frame_reduce: str) -> tuple[np.ndarray | None, np.ndarray]:
    """Frame means (mean mode) and adjacent cosines of token means or flat frames, two at a time."""
    if frame_reduce == "mean":
        means = _frame_means(v)
        return means, np.array([cosine(means[i], means[i + 1]) for i in range(len(means) - 1)])
    if frame_reduce != "flatten":
        raise ValueError(f"unknown frame_reduce mode {frame_reduce!r}")
    sims, prev = [], v.frame_grid(0).reshape(-1)
    for i in range(1, v.num_frames):
        cur = v.frame_grid(i).reshape(-1)
        sims.append(cosine(prev, cur))
        prev = cur
    return None, np.array(sims)


def segment_events(v: FrameEmbeddings, k: int, frame_reduce: str = "mean") -> EventPartition:
    """Split the video into k contiguous events at the k-1 lowest adjacent similarities.

    Ties break toward the smaller (earlier) similarity index. A k outside
    [1, T] fails with ConfigError, and a zero-norm frame with ZeroNormError.
    """
    t = v.num_frames
    if not 1 <= k <= t:
        raise ConfigError(f"need 1 <= k <= {t}, got k={k}")
    means, sims = _adjacent_sims(v, frame_reduce)
    cuts = top_k_stable(-sims, k - 1)
    return EventPartition(num_frames=t, boundaries=tuple(int(c) for c in cuts), frame_means=means)


def score_relevance(
    v: FrameEmbeddings,
    text: TextEmbedding,
    partition: EventPartition,
    event_score: str = "mean",
) -> EventPartition:
    """Fill in cross-modal relevance: per frame against the text vector, then per event.

    Frame score is the cosine of the mean-pooled frame tokens against the text
    embedding. Event score aggregates its frames' scores by mean (default) or max.
    """
    if event_score not in EVENT_SCORES:
        raise ValueError(f"unknown event_score mode {event_score!r}")
    if v.dim != text.dim:
        raise ValueError(f"embedding dims differ: frames {v.dim}, text {text.dim}")
    means = _frame_means(v) if partition.frame_means is None else partition.frame_means
    partition.frame_scores = np.array([cosine(m, text.vector) for m in means])
    agg = np.mean if event_score == "mean" else np.max
    partition.event_scores = np.array(
        [float(agg(partition.frame_scores[ev.start : ev.stop])) for ev in partition.events]
    )
    return partition


def select_keys(partition: EventPartition, alpha: float, beta: float) -> EventPartition:
    """Flag the top ceil(alpha*k) events as key, and per event the top frames as key.

    Every event, key or not, keeps max(1, ceil(beta*len)) key frames so no event
    loses all of its key frames. All selections break ties toward the earlier index.
    """
    if partition.event_scores is None or partition.frame_scores is None:
        raise ValueError("scores not populated; run score_relevance first")
    k = partition.num_events
    key_events = top_k_stable(partition.event_scores, ceil_scaled(alpha, k))
    partition.key_event = np.zeros(k, dtype=bool)
    partition.key_event[key_events] = True
    partition.key_frame = np.zeros(partition.num_frames, dtype=bool)
    for ev in partition.events:
        count = max(1, ceil_scaled(beta, len(ev)))
        local = top_k_stable(partition.frame_scores[ev.start : ev.stop], count)
        partition.key_frame[ev.start + local] = True
    return partition


def scaled_stride(stride: int, alpha: float) -> int:
    """Widen a stride by 1/alpha, rounding to the nearest integer with a floor of 1."""
    return max(1, int(math.floor(stride / alpha + 0.5)))


@dataclass
class TokenStream:
    """Flat post-pooling token sequence with each token's group tag.

    Tokens of the same frame are contiguous and frames appear in temporal
    order. key_event is the group tag the pruning schedule uses.
    """

    tokens: np.ndarray                      # (n, d)
    key_event: np.ndarray                   # (n,) bool

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]

    def group_counts(self) -> tuple[int, int]:
        """(key, non-key) token counts entering the model."""
        n_key = int(np.count_nonzero(self.key_event))
        return n_key, len(self) - n_key


@dataclass
class VisionPlan:
    """Each frame's pooling stride and group flag, counted without pooling a token."""

    partition: EventPartition
    frame_strides: np.ndarray               # (T,) int64
    key_of_frame: np.ndarray                # (T,) bool
    grid_h: int
    grid_w: int

    def __len__(self) -> int:
        return sum(self.group_counts())

    def group_counts(self) -> tuple[int, int]:
        """(key, non-key) token counts entering the model."""
        s = self.frame_strides
        counts = (-(-self.grid_h // s)) * (-(-self.grid_w // s))
        n_key = int(counts[self.key_of_frame].sum())
        return n_key, int(counts.sum()) - n_key


def _stride_plan(v: FrameEmbeddings, partition: EventPartition, s1: int, s2: int,
                 alpha: float) -> VisionPlan:
    """Each frame's stride and group flag: (s1, s2) in key events, widened by 1/alpha elsewhere."""
    if partition.key_event is None or partition.key_frame is None:
        raise ValueError("key flags not populated; run select_keys first")
    if s1 > s2:
        raise ValueError(f"s1 must not exceed s2, got ({s1}, {s2})")
    key_of_frame = np.repeat(partition.key_event, [len(ev) for ev in partition.events])
    key_frame = partition.key_frame
    strides = np.where(key_of_frame, np.where(key_frame, s1, s2),
                       np.where(key_frame, scaled_stride(s1, alpha), scaled_stride(s2, alpha)))
    return VisionPlan(partition, strides.astype(np.int64), key_of_frame, v.grid_h, v.grid_w)


def _bypass_plan(v: FrameEmbeddings, stride: int) -> VisionPlan:
    """The bypass: the stride rule over one key event whose every frame is key."""
    partition = EventPartition(num_frames=v.num_frames, boundaries=(), key_event=np.array([True]),
                               key_frame=np.ones(v.num_frames, dtype=bool))
    return _stride_plan(v, partition, stride, stride, 1.0)


def adaptive_pool(v: FrameEmbeddings, plan: VisionPlan) -> TokenStream:
    """Pool frame i at the plan's stride, in temporal order; its tokens take its group flag."""
    chunks = [avg_pool_2d(v.frame_grid(i), int(plan.frame_strides[i])).reshape(-1, v.dim)
              for i in range(v.num_frames)]
    return TokenStream(
        tokens=np.concatenate(chunks, axis=0),
        key_event=np.repeat(plan.key_of_frame, [c.shape[0] for c in chunks]),
    )


uniform_stream = adaptive_pool  # the bypass's own name, so a wrapper can tell the pools apart


def plan_vision_stage(v: FrameEmbeddings, text: TextEmbedding, cfg: RunConfig) -> VisionPlan:
    """Segment, score, select and fix every frame's stride, or plan the bypass."""
    if not cfg.stage_enabled("vision"):
        return _bypass_plan(v, cfg.baseline_stride)
    partition = segment_events(v, cfg.k, cfg.frame_reduce)
    partition = score_relevance(v, text, partition, cfg.event_score)
    partition = select_keys(partition, cfg.alpha, cfg.beta)
    return _stride_plan(v, partition, cfg.s1, cfg.s2, cfg.alpha)


def run_vision_stage(v: FrameEmbeddings, text: TextEmbedding,
                     cfg: RunConfig) -> tuple[TokenStream, EventPartition]:
    """Full vision stage: plan, then pool every frame at its planned stride.

    With the stage disabled, emits a uniform stream at the baseline stride
    (raw tokens when that stride is 1) under a single all-key event.
    """
    plan = plan_vision_stage(v, text, cfg)
    pool = adaptive_pool if cfg.stage_enabled("vision") else uniform_stream
    return pool(v, plan), plan.partition
