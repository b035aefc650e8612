"""Bit-exact ingestion and emission of frame/text embeddings, synthetic data, and run config.

Embeddings travel in MEBF files (little-endian):

    bytes 0-3   magic "MEBF"
    byte  4     version (1)
    byte  5     record type: 1 = frame tensor, 2 = text embedding
    type 1:     u32 T, u32 h, u32 w, u32 d, then T*h*w*d IEEE-754 float32,
                frame-major, row-major within each frame grid
    type 2:     u32 d, u32 M, then d float32, then M u32 prompt token ids

Storage is 32-bit. A frame record's payload is read once, in chunks, to check it
and record its frame means, then mapped read-only; frame_grid converts one frame
at a time to float64, so a write/read round trip is lossless modulo one
64->32->64 quantization.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import BinaryIO, Iterator, get_args, get_origin, get_type_hints

import numpy as np

from .kernels import Rng64

__all__ = [
    "ConfigError",
    "FrameEmbeddings",
    "MebfError",
    "RunConfig",
    "TextEmbedding",
    "atomic_write",
    "gen_synthetic",
    "load_config",
    "read_embeddings",
    "record_elements",
    "write_embeddings",
]

MAGIC = b"MEBF"
VERSION = 1
REC_FRAMES = 1
REC_TEXT = 2

# element budgets of a record, read or generated: T*h*w*d in all, and what the reader
# holds at once, a text record's d + M or one frame's h*w*d (see record_elements)
MAX_ELEMENTS = 1 << 31
MAX_TEXT_ELEMENTS = 1 << 20
MAX_FRAME_ELEMENTS = 1 << 24
READ_CHUNK_BYTES = 1 << 19  # bytes of whole frames, at least one, per read of a frame payload

STAGES = ("vision", "prefill", "decode")
EVENT_SCORES = ("mean", "max")
FRAME_REDUCES = ("mean", "flatten")
RUNTIME_FIELDS = ("event_score", "frame_reduce", "baseline_stride")  # CLI flags, not the file


class MebfError(ValueError):
    """Malformed MEBF payload."""


class ConfigError(ValueError):
    """Run configuration failed validation."""


@dataclass
class FrameEmbeddings:
    """Visual tokens for one video: (T, h*w, d) values plus the token-grid shape.

    tokens is kept as given when float32 (the read-only map read_embeddings
    makes of a file, or gen_synthetic's video) and held as float64 otherwise,
    behind a read-only view. frame_means (T, d) is each frame's float64 token
    mean, of the tokens at construction. Readers take one frame at a time
    through frame_grid; none makes a float64 copy of the whole video.
    """

    tokens: np.ndarray
    grid_h: int
    grid_w: int
    frame_means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, sums: np.ndarray | None = None):
        if not (isinstance(self.tokens, np.ndarray) and self.tokens.dtype == np.float32):
            self.tokens = np.asarray(self.tokens, dtype=np.float64)
        self.tokens = self.tokens.view()
        self.tokens.flags.writeable = False
        if self.tokens.ndim != 3:
            raise ValueError("tokens must have shape (frames, tokens_per_frame, dim)")
        if self.grid_h < 1 or self.grid_w < 1:
            raise ValueError("grid dims must be positive")
        if self.tokens.shape[1] != self.grid_h * self.grid_w:
            raise ValueError(
                f"token count {self.tokens.shape[1]} != grid {self.grid_h}x{self.grid_w}"
            )
        if self.tokens.shape[0] < 1 or self.tokens.shape[2] < 1:
            raise ValueError("need at least one frame and one embedding dim")
        if sums is None:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is judged below
                sums = np.add.reduce(self.tokens, axis=1, dtype=np.float64)
        # finite values have a finite float64 sum unless float64 ones overflow it (float32
        # ones cannot), so only a frame whose sum is not finite has its tokens checked
        bad = np.flatnonzero(~np.isfinite(sums).all(axis=1))
        if not all(np.isfinite(self.tokens[i]).all() for i in bad):
            raise ValueError("non-finite embedding values")
        self.frame_means = sums / self.tokens_per_frame
        self.frame_means.flags.writeable = False

    @classmethod
    def _from_sums(cls, tokens: np.ndarray, grid_h: int, grid_w: int,
                   sums: np.ndarray) -> FrameEmbeddings:
        """The record of tokens whose (T, d) float64 frame sums the caller has taken."""
        record = cls.__new__(cls)
        record.tokens, record.grid_h, record.grid_w = tokens, grid_h, grid_w
        record.__post_init__(sums)
        return record

    @property
    def num_frames(self) -> int:
        return self.tokens.shape[0]

    @property
    def tokens_per_frame(self) -> int:
        return self.tokens.shape[1]

    @property
    def dim(self) -> int:
        return self.tokens.shape[2]

    def frame_grid(self, i: int) -> np.ndarray:
        """Frame i as an (h, w, d) float64 grid."""
        return np.asarray(self.tokens[i], dtype=np.float64).reshape(self.grid_h, self.grid_w, -1)


@dataclass
class TextEmbedding:
    """Encoded prompt: one d-dim vector for scoring plus the prompt token ids."""

    vector: np.ndarray
    token_ids: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        if self.vector.ndim != 1 or self.vector.shape[0] < 1:
            raise ValueError("text vector must be 1-D and non-empty")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("non-finite text embedding")
        if float(np.dot(self.vector, self.vector)) == 0.0:
            raise ValueError("text embedding has zero norm")
        if self.token_ids.ndim != 1 or self.token_ids.shape[0] < 1:
            raise ValueError("need at least one prompt token id")
        if np.any(self.token_ids < 0) or np.any(self.token_ids > 0xFFFFFFFF):
            raise ValueError("token ids must fit in u32")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @property
    def num_tokens(self) -> int:
        return self.token_ids.shape[0]


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Write via a same-directory temp file and a rename: a failed write keeps the old file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_embeddings(obj: FrameEmbeddings | TextEmbedding, path: str | Path) -> None:
    """Atomically write a frame tensor or text embedding as MEBF (float64 stored as float32)."""
    if isinstance(obj, FrameEmbeddings):
        header = struct.pack(
            "<4sBB4I", MAGIC, VERSION, REC_FRAMES,
            obj.num_frames, obj.grid_h, obj.grid_w, obj.dim,
        )
        # float32 frames are written as they are; only a float64 record is converted
        payload = (np.ascontiguousarray(frame, dtype="<f4") for frame in obj.tokens)
    elif isinstance(obj, TextEmbedding):
        header = struct.pack("<4sBB2I", MAGIC, VERSION, REC_TEXT, obj.dim, obj.num_tokens)
        payload = (obj.vector.astype("<f4"), obj.token_ids.astype("<u4"))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with atomic_write(path) as fh:
        fh.write(header)
        for array in payload:
            fh.write(array)


def record_elements(rec_type: int, dims: tuple[int, ...], name: str) -> int:
    """Element count of a record with these header dims; MebfError past a budget."""
    count = math.prod(dims) if rec_type == REC_FRAMES else sum(dims)
    held, budget = ((math.prod(dims[1:]), MAX_FRAME_ELEMENTS) if rec_type == REC_FRAMES
                    else (count, MAX_TEXT_ELEMENTS))
    if count > MAX_ELEMENTS or held > budget:
        raise MebfError(f"{name} claims {count} elements, over the MEBF budget")
    return count


def read_embeddings(path: str | Path) -> FrameEmbeddings | TextEmbedding:
    """Parse an MEBF file into the record it holds.

    The header is checked against the file size before any payload byte is
    read, and every malformed file raises an MebfError. A frame payload is then
    read once, READ_CHUNK_BYTES of whole frames at a time, into the float64
    frame sums that check it and give its frame means, and mapped read-only.
    """
    size = Path(path).stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(6)
        if len(head) < 6:
            raise MebfError(f"{path}: file shorter than MEBF header")
        if head[:4] != MAGIC:
            raise MebfError(f"{path}: bad magic {head[:4]!r}")
        if head[4] != VERSION:
            raise MebfError(f"{path}: unsupported version {head[4]}")
        rec_type = head[5]
        if rec_type not in (REC_FRAMES, REC_TEXT):
            raise MebfError(f"{path}: unknown record type {rec_type}")
        n_dims = 4 if rec_type == REC_FRAMES else 2
        raw = fh.read(4 * n_dims)
        if len(raw) < 4 * n_dims:
            raise MebfError(f"{path}: record header truncated")
        dims = struct.unpack(f"<{n_dims}I", raw)
        if min(dims) < 1:
            raise MebfError(f"{path}: zero dimension in header")
        count = record_elements(rec_type, dims, f"{path}: header")
        payload = size - fh.tell()
        if payload < 4 * count:
            raise MebfError(
                f"{path}: payload holds {payload // 4} elements, header claims {count}"
            )
        if payload > 4 * count:
            raise MebfError(f"{path}: {payload - 4 * count} trailing bytes")
        try:  # values the header cannot vouch for, such as non-finite or zero-norm ones
            if rec_type == REC_FRAMES:
                t, h, w, d = dims
                offset, sums = fh.tell(), np.empty((t, d))
                chunk = np.empty((min(t, max(1, READ_CHUNK_BYTES // (4 * h * w * d))), h * w, d), "<f4")
                for f in range(0, t, len(chunk)):
                    frames = chunk[: t - f]
                    if fh.readinto(frames) != frames.nbytes:
                        raise MebfError(f"{path}: payload ended early")
                    with np.errstate(invalid="ignore"):  # +inf and -inf sum to NaN, refused below
                        np.add.reduce(frames, axis=1, dtype=np.float64, out=sums[f : f + len(frames)])
                tokens = np.memmap(fh, "<f4", mode="r", offset=offset, shape=(t, h * w, d))
                return FrameEmbeddings._from_sums(tokens, h, w, sums)
            vector = np.fromfile(fh, "<f4", dims[0]).astype(np.float64)
            ids = np.fromfile(fh, "<u4", dims[1]).astype(np.int64)
            return TextEmbedding(vector=vector, token_ids=ids)
        except MebfError:
            raise
        except ValueError as e:
            raise MebfError(f"{path}: {e}") from e


NOISE_SCALE = 0.05
SYNTH_VOCAB = 256


def gen_synthetic(
    num_frames: int,
    grid_h: int,
    grid_w: int,
    dim: int,
    seed: int,
    num_segments: int = 1,
    text_segment: int | None = None,
    text_len: int = 8,
) -> tuple[FrameEmbeddings, TextEmbedding]:
    """Deterministic stand-in for encoder outputs, with planted segment structure.

    The video is split into num_segments contiguous ground-truth segments of
    near-equal length. Each segment draws one base vector; every token of every
    frame is that base plus noise at NOISE_SCALE of the base norm, so adjacent
    frames agree strongly inside a segment and similarity dips at the planted
    boundaries. The text vector sits near the base of text_segment (middle
    segment by default), making its frames the most text-relevant.

    Draw order is fixed (segment bases, then frames in order, then the text
    vector, then prompt ids), so output is a pure function of the arguments.
    """
    if min(num_frames, grid_h, grid_w, dim) < 1:
        raise ValueError("dims must be positive")
    if num_segments < 1 or num_segments > num_frames:
        raise ValueError(f"cannot plant {num_segments} segments in {num_frames} frames")
    if text_segment is None:
        text_segment = num_segments // 2
    if not 0 <= text_segment < num_segments:
        raise ValueError(f"text_segment {text_segment} out of range")
    if text_len < 1:
        raise ValueError("need at least one prompt token")
    record_elements(REC_FRAMES, (num_frames, grid_h, grid_w, dim), "video")
    record_elements(REC_TEXT, (dim, text_len), "prompt")

    rng = Rng64(seed)
    n_tok = grid_h * grid_w
    bases = rng.next_unit_array(num_segments * dim).reshape(num_segments, dim)
    base_len, rem = divmod(num_frames, num_segments)
    seg_of_frame = np.repeat(
        np.arange(num_segments),
        [base_len + 1 if s < rem else base_len for s in range(num_segments)],
    )
    tokens = np.empty((num_frames, n_tok, dim), dtype=np.float32)  # as written to MEBF
    for i in range(num_frames):
        base = bases[seg_of_frame[i]]
        scale = NOISE_SCALE * math.sqrt(float(np.dot(base, base)))
        noise = rng.next_unit_array(n_tok * dim).reshape(n_tok, dim)
        tokens[i] = base + scale * noise
    t_base = bases[text_segment]
    t_scale = NOISE_SCALE * math.sqrt(float(np.dot(t_base, t_base)))
    vector = t_base + t_scale * rng.next_unit_array(dim)
    ids = np.array([rng.next_raw() % SYNTH_VOCAB for _ in range(text_len)], dtype=np.int64)
    return (
        FrameEmbeddings(tokens=tokens, grid_h=grid_h, grid_w=grid_w),
        TextEmbedding(vector=vector, token_ids=ids),
    )


@dataclass
class RunConfig:
    """All knobs for one run; defaults follow the 7B reference regime.

    The fields declare every setting once. The JSON file schema is every field
    outside RUNTIME_FIELDS (names match keys, types follow the annotations).
    """

    k: int = 5
    alpha: float = 0.5
    beta: float = 0.4
    s1: int = 2
    s2: int = 3
    r: float = 0.76
    layer_boundaries: tuple[int, int, int] = (3, 10, 19)
    layers: int = 12
    heads: int = 4
    d_model: int = 64
    mlp_ratio: float = 4.0
    seed: int = 0
    disable_stages: tuple[str, ...] = ()

    event_score: str = "mean"       # event relevance aggregation: mean | max
    frame_reduce: str = "mean"      # adjacent-frame similarity on mean-pooled | flattened tokens
    baseline_stride: int = 1        # backbone-native uniform pooling used by the baseline/bypass path

    def __post_init__(self):
        self.layer_boundaries = tuple(int(b) for b in self.layer_boundaries)
        self.disable_stages = tuple(self.disable_stages)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        for name in ("alpha", "beta", "r"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {v}")
        if self.s1 < 1 or self.s2 < 1:
            raise ConfigError("pooling strides must be >= 1")
        if self.s1 > self.s2:
            raise ConfigError(f"s1 must not exceed s2, got ({self.s1}, {self.s2})")
        if len(self.layer_boundaries) != 3:
            raise ConfigError("layer_boundaries must hold exactly three layer indices")
        l1, l2, l3 = self.layer_boundaries
        if not (0 <= l1 < l2 < l3):
            raise ConfigError(f"layer boundaries must be strictly increasing, got {self.layer_boundaries}")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.d_model < 1:
            raise ConfigError("d_model must be >= 1")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide d_model ({self.d_model})")
        if not 0 < self.mlp_ratio < math.inf:
            raise ConfigError(f"mlp_ratio must be positive and finite, got {self.mlp_ratio}")
        for s in self.disable_stages:
            if s not in STAGES:
                raise ConfigError(f"unknown stage {s!r}; expected one of {STAGES}")
        if self.event_score not in EVENT_SCORES:
            raise ConfigError(f"event_score must be one of {EVENT_SCORES}, got {self.event_score!r}")
        if self.frame_reduce not in FRAME_REDUCES:
            raise ConfigError(f"frame_reduce must be one of {FRAME_REDUCES}, got {self.frame_reduce!r}")
        if self.baseline_stride < 1:
            raise ConfigError("baseline_stride must be >= 1")

    def stage_enabled(self, stage: str) -> bool:
        return stage not in self.disable_stages

    def to_dict(self) -> dict:
        """Stable, JSON-ready echo of the effective configuration: every field, tuples as lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@functools.cache
def _config_hints() -> dict:  # RunConfig's field types follow the class alone: resolve them once
    return get_type_hints(RunConfig)


def _fits(hint, value) -> bool:
    """Whether a JSON value fits a field annotation; a tuple field takes a JSON list."""
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if items[-1] is Ellipsis and isinstance(value, list):
            items = items[:1] * len(value)
        return isinstance(value, list) and len(value) == len(items) and all(map(_fits, items, value))
    return not isinstance(value, bool) and isinstance(value, (int, float) if hint is float else hint)


def load_config(path: str | Path) -> RunConfig:
    """Load a JSON run config; missing keys take the reference-regime defaults.

    Each value is checked against its field's annotation. Unknown keys warn and
    are ignored; wrong types, out-of-range values and unordered layer
    boundaries fail with ConfigError.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    hints = _config_hints()
    kwargs = {}
    for key, value in data.items():
        if key not in hints or key in RUNTIME_FIELDS:
            warnings.warn(f"{path}: ignoring unknown config key {key!r}", stacklevel=2)
            continue
        hint = hints[key]
        if not _fits(hint, value):
            name = str(hint) if get_origin(hint) else hint.__name__
            raise ConfigError(f"{path}: {key} must be {name}, got {value!r}")
        kwargs[key] = float(value) if hint is float else value
    try:
        return RunConfig(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def config_with(cfg: RunConfig, **overrides) -> RunConfig:
    """Copy of cfg with fields replaced and re-validated."""
    return replace(cfg, **overrides)
