"""A small deterministic decoder-only transformer with an explicit KV cache.

Pre-norm residual blocks with no biases, absolute sinusoidal positions added
to the input rows before any pruning (so survivors keep their temporal
geometry and no position ids are tracked), ReLU MLPs, greedy argmax decoding.
All weights come from one seeded SplitMix64 stream, so identical configs give
bitwise-identical models, prefills, and decodes regardless of thread count.
Each layer's Q, K and V weights are the column blocks of one (d, 3d) array.

Prefill applies the layer-wise schedule at each boundary layer: importance is
measured from the text rows of that layer's attention over its incoming
sequence, then the layer (and everything after it) runs on the pruned
sequence; the text prompt, the last text_len rows, is never pruned. Causal
attention runs over blocks of query rows with q pre-scaled by 1/sqrt(head_dim),
so no (heads, n, n) score tensor is ever built, and softmax is normalised after
P·V. Heads run in chunks, at most one per CPU the process may use, on one
reused score workspace; the result is bit-identical to one thread's. The final
layer runs only the last prompt row, the one final_logits reads, so the
executed work is below the counted 4*n^2*d attention and MLP terms.
A decode layer-step is one fused Q/K/V matmul plus ~25 small numpy calls; its
floor is streaming the float64 weights (19 MB a forward at d_model 128, 12 layers).
The decode-stage policy drops cached visual entries from a given layer upward
(the pipeline passes schedule.kv_drop_layer). Its reference is decode's -inf
masking with mask_from at that layer; the two agree up to float summation
order. Text is the last text_len entries of every cache layer; layers the
policy keeps whole are shared with its input, not copied. Wall-clock is the
caller's to measure.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data_io import RunConfig, TextEmbedding
from .kernels import Rng64
from .schedule import PruneSchedule, retention_ratio, select_at_boundary, token_importance
from .vision import TokenStream

__all__ = [
    "DecodeOutput", "KvCache", "PrefillInput", "PrefillResult", "ToyModel", "apply_kv_policy",
    "attention_ratio_trace", "build_prefill_input", "decode", "init_model", "prefill",
]

VOCAB = 256
_NORM_EPS = 1e-6
_PROJECTOR_SALT = 0x56495350
# Query rows per causal-attention block. Fixed, not configurable: results
# differ across block sizes by float summation order, so one constant keeps
# every run bit-reproducible.
_QBLOCK = 256
# Fewest score-workspace elements (1 MiB) per head chunk; smaller ones cost more than they save.
_CHUNK_SCORES = 1 << 17


@dataclass
class ToyModel:
    layers: int
    heads: int
    d_model: int
    vocab: int
    seed: int
    embed: np.ndarray
    unembed: np.ndarray
    w_qkv: list[np.ndarray]      # (d, 3d): wq, wk, wv side by side
    wq: list[np.ndarray]         # column-block views of w_qkv
    wk: list[np.ndarray]
    wv: list[np.ndarray]
    wo: list[np.ndarray]
    w_in: list[np.ndarray]
    w_out: list[np.ndarray]

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


def init_model(cfg: RunConfig) -> ToyModel:
    """Build the model with all weights drawn from Rng64(cfg.seed) in a fixed order."""
    d = cfg.d_model
    hidden = max(1, int(math.floor(cfg.mlp_ratio * d + 0.5)))
    rng = Rng64(cfg.seed)

    def draw(rows: int, cols: int) -> np.ndarray:
        return rng.next_unit_array(rows * cols).reshape(rows, cols) / math.sqrt(rows)

    embed = draw(VOCAB, d) * math.sqrt(VOCAB)  # unit-scale token vectors
    w_qkv, wo, w_in, w_out = [], [], [], []
    for _ in range(cfg.layers):
        w_qkv.append(np.concatenate([draw(d, d) for _ in range(3)], axis=1))  # q, k, v
        wo.append(draw(d, d))
        w_in.append(draw(d, hidden))
        w_out.append(draw(hidden, d))
    unembed = draw(d, VOCAB)
    wq, wk, wv = ([w[:, i * d : (i + 1) * d] for w in w_qkv] for i in range(3))
    return ToyModel(
        layers=cfg.layers, heads=cfg.heads, d_model=d, vocab=VOCAB, seed=cfg.seed,
        embed=embed, unembed=unembed, w_qkv=w_qkv, wq=wq, wk=wk, wv=wv,
        wo=wo, w_in=w_in, w_out=w_out,
    )


def visual_projection(seed: int, d_in: int, d_model: int) -> np.ndarray:
    """Seeded linear map from embedding dim to model dim (the multimodal projector)."""
    rng = Rng64(seed ^ _PROJECTOR_SALT)
    return rng.next_unit_array(d_in * d_model).reshape(d_in, d_model) / math.sqrt(d_in)


def sinusoidal_positions(positions: np.ndarray, d_model: int) -> np.ndarray:
    """Absolute sinusoidal encoding rows for the given positions."""
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    half = np.arange((d_model + 1) // 2, dtype=np.float64)
    freq = np.power(10000.0, -2.0 * half / d_model)[None, :]
    angles = pos * freq
    pe = np.zeros((pos.shape[0], d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe


def _rms_norm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _NORM_EPS)


def _rms_row(x: np.ndarray) -> np.ndarray:
    """_rms_norm of one 1-D row, bit for bit, with its scalar steps as Python floats."""
    return x / math.sqrt(float(np.add.reduce(x * x)) / x.shape[0] + _NORM_EPS)


def _mlp(x: np.ndarray, w_in: np.ndarray, w_out: np.ndarray, norm=_rms_norm) -> np.ndarray:
    """ReLU MLP of the normed rows; the normed and hidden blocks are freed as soon as used."""
    hidden = norm(x) @ w_in
    return np.maximum(hidden, 0.0, out=hidden) @ w_out


@dataclass
class PrefillInput:
    """Concatenated model input: visual block first, then the last text_len rows are text."""

    x: np.ndarray                # (n, d_model); row i carries position i's encoding
    is_key: np.ndarray           # (n - text_len,) bool; group tag of each visual row
    text_len: int

    def __post_init__(self):
        n = self.x.shape[0]
        if not 1 <= self.text_len <= n:
            raise ValueError(f"text_len must be in [1, {n}], got {self.text_len}")
        if self.is_key.shape != (n - self.text_len,):
            raise ValueError("need one group tag per visual row")


def build_prefill_input(model: ToyModel, stream: TokenStream, text: TextEmbedding) -> PrefillInput:
    """Project visual tokens to model width, embed prompt ids, add positions."""
    proj = visual_projection(model.seed, stream.dim, model.d_model)
    x_vis = stream.tokens @ proj
    x_text = model.embed[text.token_ids % model.vocab]
    x = np.concatenate([x_vis, x_text], axis=0)
    x = x + sinusoidal_positions(np.arange(x.shape[0]), model.d_model)
    return PrefillInput(x=x, is_key=stream.key_event, text_len=text.num_tokens)


@dataclass
class KvCache:
    """Per-layer cached keys/values of the surviving prompt rows, in prompt order.

    Text is the last text_len entries of every layer. Visual entries of
    layers from mask_from upward stay in place but attract -inf attention
    scores; mask_from is the layer count when nothing is masked. decode() reads
    the cache and never writes it.
    """

    prompt_len: int
    text_len: int
    mask_from: int
    k: list[np.ndarray] = field(default_factory=list)           # (n_l, d_model)
    v: list[np.ndarray] = field(default_factory=list)

    def entry_counts(self) -> list[int]:
        """Physically stored entries per layer (masked entries included)."""
        return [k.shape[0] for k in self.k]


@dataclass
class PrefillResult:
    cache: KvCache
    final_logits: np.ndarray     # logits at the last prompt position
    layer_lengths: list[int]     # sequence length entering each layer: cache.entry_counts()


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _causal_exp(q: np.ndarray, k: np.ndarray, start: int, stop: int, tile: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """(heads, stop-start, stop) softmax numerators exp(s - row max) of query rows [start:stop].

    q is pre-scaled by 1/sqrt(head_dim). Row i sees keys [:i+1]. Keys before
    start are visible to every row, so -inf goes only into the diagonal tile
    [start:stop, start:stop], taken from the -inf upper triangle tile of at
    least stop-start rows. The block is written into out when given.
    """
    rows = stop - start
    s = np.matmul(q[:, start:stop], k[:, :stop].transpose(0, 2, 1), out=out)
    s[:, :, start:] += tile[:rows, :rows]
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    return s


def _upper_tile(size: int) -> np.ndarray:
    return np.triu(np.full((size, size), -np.inf), k=1)


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@functools.cache  # two racing first calls may build a spare pool; both work
def _head_pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(thread_name_prefix="metok-heads")


def _causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, first: int = 0) -> np.ndarray:
    """(n-first, heads*head_dim) causal attention of split-head query rows [first:n], in blocks.

    Working memory is one (heads, _QBLOCK, n) score workspace instead of a
    (heads, n, n) tensor; each block reads only the keys it can see. Softmax
    is normalised after P·V, on the small (heads, rows, head_dim) output.
    Heads run in contiguous chunks, at most one per usable CPU, the first on
    the caller's thread; no head's arithmetic depends on its chunk.
    """
    heads, n, head_dim = q.shape
    block = min(_QBLOCK, n - first)
    tile = _upper_tile(block)
    scores = np.empty((heads, block, n))
    out = np.empty((n - first, heads, head_dim))

    def attend(h0: int, h1: int) -> None:  # heads [h0:h1] into their slots of out
        for start in range(first, n, block):
            stop = min(start + block, n)
            e = _causal_exp(q[h0:h1], k[h0:h1], start, stop, tile,
                            scores[h0:h1, : stop - start, :stop])
            pv = e @ v[h0:h1, :stop]
            pv /= e.sum(axis=-1, keepdims=True)
            out[start - first : stop - first, h0:h1] = pv.transpose(1, 0, 2)

    chunks = max(1, min(_usable_cpus(), heads, scores.size // _CHUNK_SCORES))
    spans = [(i * heads // chunks, (i + 1) * heads // chunks) for i in range(chunks)]
    pending = [_head_pool().submit(attend, *span) for span in spans[1:]]
    try:
        attend(*spans[0])
    finally:  # no chunk may still write into out once this call has ended
        for job in pending:
            job.result()
    return out.reshape(n - first, heads * head_dim)


def _prune_boundary(
    sched: PruneSchedule,
    layer: int,
    q: np.ndarray,
    k: np.ndarray,
    is_key: np.ndarray,
    text_len: int,
) -> np.ndarray:
    """Keep mask over the incoming rows of a boundary layer, from its text rows' attention.

    q (pre-scaled) and k are the layer's split-head projections of the
    incoming rows. The last text_len rows are text and always kept; their
    post-softmax (heads, text_len, n) block is all the importance rule reads.
    """
    n = q.shape[1]
    attn = _causal_exp(q, k, n - text_len, n, _upper_tile(text_len))
    attn /= attn.sum(axis=-1, keepdims=True)
    keep = np.ones(n, dtype=bool)
    for group, flag in (("key", True), ("non_key", False)):
        grp_rows = np.flatnonzero(is_key == flag)
        if grp_rows.size == 0 and sched.origin(group) == 0:
            continue
        ratio = retention_ratio(layer, group, sched)
        importance = token_importance(attn, grp_rows)
        keep[grp_rows] = False
        keep[select_at_boundary(importance, grp_rows, sched.origin(group), ratio)] = True
    return keep


def prefill(model: ToyModel, inp: PrefillInput, sched: PruneSchedule) -> PrefillResult:
    """Forward the prompt, pruning visual tokens at each boundary layer's input.

    Caches each layer's keys/values for its surviving positions, so the cache's
    entry counts are the sequence lengths entering the layers. The cache takes
    K/V from each layer's input, so the final layer runs attention, Wo and the
    MLP only for the last prompt row, the one final_logits reads.
    """
    if sched.total_layers != model.layers:
        raise ValueError("schedule and model disagree on layer count")
    x, is_key = inp.x, inp.is_key
    boundaries = set(sched.boundary_layers())
    cache = KvCache(prompt_len=x.shape[0], text_len=inp.text_len, mask_from=model.layers)
    q_scale = 1.0 / math.sqrt(model.head_dim)
    for layer in range(model.layers):
        # RMS-norm and the projections act row by row, so a boundary layer
        # scores from its incoming rows and keeps the survivors' projections.
        h = _rms_norm(x)
        q_flat = (h @ model.wq[layer]) * q_scale
        k_flat = h @ model.wk[layer]
        v_flat = h @ model.wv[layer]
        if layer in boundaries:
            keep = _prune_boundary(
                sched, layer, _split_heads(q_flat, model.heads),
                _split_heads(k_flat, model.heads), is_key, inp.text_len,
            )
            x, is_key = x[keep], is_key[keep[: len(is_key)]]
            q_flat, k_flat, v_flat = q_flat[keep], k_flat[keep], v_flat[keep]
        n = x.shape[0]
        cache.k.append(k_flat)
        cache.v.append(v_flat)
        first = n - 1 if layer == model.layers - 1 else 0
        # no name keeps the attention output alive into the next layer's workspace
        x = x[first:] + _causal_attention(
            _split_heads(q_flat, model.heads),
            _split_heads(k_flat, model.heads),
            _split_heads(v_flat, model.heads),
            first,
        ) @ model.wo[layer]
        x = x + _mlp(x, model.w_in[layer], model.w_out[layer])
    final_logits = _rms_norm(x[-1:])[0] @ model.unembed
    return PrefillResult(cache=cache, final_logits=final_logits,
                         layer_lengths=cache.entry_counts())


def apply_kv_policy(cache: KvCache, drop_layer: int) -> KvCache:
    """Drop cached visual entries from drop_layer upward; text always stays.

    Those layers keep a copy of only their text tail. Every array the policy
    does not filter is the input cache's own, shared rather than copied: both
    caches are read-only. The -inf reference it must match is the input cache
    with mask_from set to drop_layer, which decode masks instead of dropping.
    """
    out = KvCache(cache.prompt_len, cache.text_len, cache.mask_from)
    for layer, (k, v) in enumerate(zip(cache.k, cache.v)):
        if layer >= drop_layer:
            k, v = (a[len(a) - cache.text_len :].copy() for a in (k, v))
        out.k.append(k)
        out.v.append(v)
    return out


@dataclass
class DecodeOutput:
    tokens: np.ndarray            # (steps,) generated ids, greedy argmax
    logits: np.ndarray            # (steps, vocab); row s produced token s
    attn_split: np.ndarray        # (forwards, layers, 2) head-mean prompt mass (visual, text)

    @property
    def num_forwards(self) -> int:
        return self.attn_split.shape[0]


def decode(model: ToyModel, cache: KvCache, steps: int, first_logits: np.ndarray) -> DecodeOutput:
    """Greedy decode against the (possibly masked) cache, which is not modified.

    Token 0 is the argmax of first_logits (computed by prefill); each further
    token comes from one forward pass, whose layer-steps project Q, K and V with
    one matmul and keep K and V in split-head buffers beside the caller's cache,
    so decoding twice from one cache gives the same result. Per forward and
    layer, the head-averaged attention mass on visual vs text PROMPT positions
    is recorded.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(cache.k) != model.layers:
        raise ValueError("cache and model disagree on layer count")
    if np.shape(first_logits) != (model.vocab,):
        raise ValueError(f"first_logits must have shape ({model.vocab},)")
    heads, head_dim, d, gen = model.heads, model.head_dim, model.d_model, steps - 1
    logits = np.empty((steps, model.vocab))  # row s produces token s, its argmax
    logits[0] = first_logits
    attn_split = np.empty((gen, model.layers, 2))
    positions = sinusoidal_positions(np.arange(gen) + cache.prompt_len, d)
    scale = math.sqrt(head_dim)
    counts = cache.entry_counts()
    # per layer: cached entries, their visual/text split, split-head K^T and V, generated K/V
    layers = [(c, np.array([0, c - cache.text_len]), _split_heads(k, heads).transpose(0, 2, 1),
               _split_heads(v, heads), np.empty((2, heads, gen, head_dim)))
              for c, k, v in zip(counts, cache.k, cache.v)]
    scores = np.empty(heads * (max(counts) + gen))
    for s in range(gen):
        x = model.embed[np.argmax(logits[s])] + positions[s]
        for layer, (c, split, k_c, v_c, gen_kv) in enumerate(layers):
            qkv = _rms_row(x) @ model.w_qkv[layer]
            gen_kv[:, :, s] = qkv[d:].reshape(2, heads, head_dim)
            q = qkv[:d].reshape(heads, 1, head_dim)
            row = scores[: heads * (c + s + 1)].reshape(heads, 1, c + s + 1)
            np.matmul(q, k_c, out=row[:, :, :c])
            np.matmul(q, gen_kv[0, :, : s + 1].transpose(0, 2, 1), out=row[:, :, c:])
            p = row[:, 0]
            p /= scale
            if layer >= cache.mask_from:
                p[:, : split[1]] = -np.inf
            p -= np.maximum.reduce(p, axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=-1, keepdims=True)
            np.add.reduceat(np.add.reduce(p[:, :c], axis=0), split, out=attn_split[s, layer])
            out = p[:, None, :c] @ v_c
            out += p[:, None, c:] @ gen_kv[1, :, : s + 1]
            x += out.reshape(d) @ model.wo[layer]
            x += _mlp(x, model.w_in[layer], model.w_out[layer], _rms_row)
        np.matmul(_rms_row(x), model.unembed, out=logits[s + 1])
    attn_split /= heads  # the loop summed the heads' masses
    # reduceat has no empty segment: a layer with no visual entry got its first text entry
    attn_split[:, [c == cache.text_len for c in counts], 0] = 0.0
    return DecodeOutput(tokens=logits.argmax(axis=1), logits=logits, attn_split=attn_split)


def attention_ratio_trace(out: DecodeOutput) -> np.ndarray:
    """Per-layer (visual_ratio, text_ratio) over prompt positions, averaged over steps.

    Each step's pair is normalized to sum to 1 before averaging, so layers
    whose cache holds no visual prompt entries report exactly (0, 1).
    """
    if out.num_forwards < 1:
        raise ValueError("no decode forwards recorded")
    totals = out.attn_split.sum(axis=-1, keepdims=True)
    if np.any(totals == 0.0):
        raise ValueError("layer with zero prompt attention mass")
    ratios = out.attn_split / totals
    return ratios.mean(axis=0)
