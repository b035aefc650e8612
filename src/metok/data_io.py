"""Bit-exact ingestion and emission of frame/text embeddings, synthetic data, and run config.

Embeddings travel in MEBF files (little-endian):

    bytes 0-3   magic "MEBF"
    byte  4     version (1)
    byte  5     record type: 1 = frame tensor, 2 = text embedding
    type 1:     u32 T, u32 h, u32 w, u32 d, then T*h*w*d IEEE-754 float32,
                frame-major, row-major within each frame grid
    type 2:     u32 d, u32 M, then d float32, then M u32 prompt token ids

Storage is 32-bit. A frame record is read as a copy-on-write map, and
frame_grid converts one frame at a time to float64, so a write/read round trip
is lossless modulo one 64->32->64 quantization.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO, Iterator, get_args, get_origin, get_type_hints

import numpy as np

from .kernels import Rng64

__all__ = [
    "BadMagicError",
    "ConfigError",
    "DimensionOverflowError",
    "FrameEmbeddings",
    "MebfError",
    "RunConfig",
    "TextEmbedding",
    "TruncatedPayloadError",
    "atomic_write",
    "gen_synthetic",
    "load_config",
    "read_embeddings",
    "write_embeddings",
]

MAGIC = b"MEBF"
VERSION = 1
REC_FRAMES = 1
REC_TEXT = 2

# refuse headers whose element count could not be a real desk-scale tensor
MAX_ELEMENTS = 1 << 31
# the most elements the reader holds at once: a text record's d + M, one frame's h*w*d
MAX_TEXT_ELEMENTS = 1 << 20
MAX_FRAME_ELEMENTS = 1 << 24

STAGES = ("vision", "prefill", "decode")
EVENT_SCORES = ("mean", "max")
FRAME_REDUCES = ("mean", "flatten")
RUNTIME_FIELDS = ("event_score", "frame_reduce", "baseline_stride")  # CLI flags, not the file


class MebfError(ValueError):
    """Malformed MEBF payload."""


class BadMagicError(MebfError):
    pass


class TruncatedPayloadError(MebfError):
    pass


class DimensionOverflowError(MebfError):
    pass


class ConfigError(ValueError):
    """Run configuration failed validation."""


@dataclass
class FrameEmbeddings:
    """Visual tokens for one video: (T, h*w, d) values plus the token-grid shape.

    tokens is a float64 array, or the float32 copy-on-write map read_embeddings
    makes of a file; frames are read through frame_grid, one at a time.
    """

    tokens: np.ndarray
    grid_h: int
    grid_w: int

    def __post_init__(self):
        if not isinstance(self.tokens, np.memmap):
            self.tokens = np.asarray(self.tokens, dtype=np.float64)
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
        if not all(np.isfinite(self.tokens[i]).all() for i in range(self.num_frames)):
            raise ValueError("non-finite embedding values")

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
        payload = (obj.frame_grid(i).astype("<f4") for i in range(obj.num_frames))
    elif isinstance(obj, TextEmbedding):
        header = struct.pack("<4sBB2I", MAGIC, VERSION, REC_TEXT, obj.dim, obj.num_tokens)
        payload = (obj.vector.astype("<f4"), obj.token_ids.astype("<u4"))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with atomic_write(path) as fh:
        fh.write(header)
        for array in payload:
            fh.write(array)


def read_embeddings(path: str | Path) -> FrameEmbeddings | TextEmbedding:
    """Parse an MEBF file into the record it holds.

    The header is checked against the file size before any payload byte is
    read, and every malformed file raises an MebfError. A frame record's tokens
    map the payload copy-on-write: writes to them never reach the file.
    """
    size = Path(path).stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(6)
        if len(head) < 6:
            raise TruncatedPayloadError(f"{path}: file shorter than MEBF header")
        if head[:4] != MAGIC:
            raise BadMagicError(f"{path}: bad magic {head[:4]!r}")
        if head[4] != VERSION:
            raise MebfError(f"{path}: unsupported version {head[4]}")
        rec_type = head[5]
        if rec_type not in (REC_FRAMES, REC_TEXT):
            raise MebfError(f"{path}: unknown record type {rec_type}")
        n_dims = 4 if rec_type == REC_FRAMES else 2
        raw = fh.read(4 * n_dims)
        if len(raw) < 4 * n_dims:
            raise TruncatedPayloadError(f"{path}: record header truncated")
        dims = struct.unpack(f"<{n_dims}I", raw)
        if min(dims) < 1:
            raise MebfError(f"{path}: zero dimension in header")
        count = math.prod(dims) if rec_type == REC_FRAMES else sum(dims)
        held, budget = ((math.prod(dims[1:]), MAX_FRAME_ELEMENTS) if rec_type == REC_FRAMES
                        else (count, MAX_TEXT_ELEMENTS))
        if count > MAX_ELEMENTS or held > budget:
            raise DimensionOverflowError(f"{path}: header claims {count} elements")
        payload = size - fh.tell()
        if payload < 4 * count:
            raise TruncatedPayloadError(
                f"{path}: payload holds {payload // 4} elements, header claims {count}"
            )
        if payload > 4 * count:
            raise MebfError(f"{path}: {payload - 4 * count} trailing bytes")
        try:  # values the header cannot vouch for, such as non-finite or zero-norm ones
            if rec_type == REC_FRAMES:
                t, h, w, d = dims
                tokens = np.memmap(fh, "<f4", mode="c", offset=fh.tell(), shape=(t, h * w, d))
                return FrameEmbeddings(tokens=tokens, grid_h=h, grid_w=w)
            vector = np.fromfile(fh, "<f4", dims[0]).astype(np.float64)
            ids = np.fromfile(fh, "<u4", dims[1]).astype(np.int64)
            return TextEmbedding(vector=vector, token_ids=ids)
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

    rng = Rng64(seed)
    n_tok = grid_h * grid_w
    bases = rng.next_unit_array(num_segments * dim).reshape(num_segments, dim)
    base_len, rem = divmod(num_frames, num_segments)
    seg_of_frame = np.repeat(
        np.arange(num_segments),
        [base_len + 1 if s < rem else base_len for s in range(num_segments)],
    )
    tokens = np.empty((num_frames, n_tok, dim))
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
        self.validate()

    def validate(self) -> None:
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
    hints = get_type_hints(RunConfig)
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
