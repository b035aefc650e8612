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
sequence; the text prompt, the last text_len rows, is never pruned. Prefill
uses every CPU the process may use. Causal attention runs as (head, 256-row
query block) tasks, each scored into its worker's own (block, n) workspace (q
pre-scaled, softmax normalised after P·V), so no (heads, n, n) tensor is built.
A layer whose scores provably fit exp's range (_score_bound) skips softmax's
row-max shift, and no -inf goes into exp there.
RMS norm, the projections, Wo and the MLP run in fixed pieces of 256-511 rows.
Buffers are allocated by the calling thread and the bits do not depend on the
CPU count. The final layer runs only the last prompt row, so the executed work
is below the counted 4*n^2*d attention terms.
A decode layer-step is one fused Q/K/V matmul plus ~25 small numpy calls; its
floor is streaming the float64 weights (19 MB a forward at d_model 128, 12 layers).
The decode-stage policy drops cached visual entries from a given layer upward
(the pipeline passes schedule.kv_drop_layer): dropping an entry is excluding it
from the softmax, so decode never masks. Text is the last text_len entries of
every cache layer; layers the policy keeps whole are shared with its input,
not copied. Wall-clock is the caller's to measure.
"""

from __future__ import annotations

import functools
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor, wait
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
# Fewest score elements (1 MiB) per query block per attention worker; a smaller
# hand-over costs more than it saves.
_CHUNK_SCORES = 1 << 17
# Row-wise layer work runs in pieces of [_ROWS, 2*_ROWS) rows, where a gemm of a
# row piece gives the bits of those rows of the whole product.
_ROWS = 256
# Softmax takes exp(s) with no row max on a layer whose scores provably stay within
# ±_EXP_SAFE: e^±600 is a normal float64, and a row sum of n·e^600 stays finite.
_EXP_SAFE = 600.0


@dataclass
class ToyModel:
    layers: int
    heads: int
    d_model: int
    vocab: int
    seed: int
    embed: np.ndarray
    unembed: np.ndarray
    w_qkv: list[np.ndarray]      # (d, 3d): the Q, K and V weights side by side
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
    return ToyModel(
        layers=cfg.layers, heads=cfg.heads, d_model=d, vocab=VOCAB, seed=cfg.seed,
        embed=embed, unembed=unembed, w_qkv=w_qkv, wo=wo, w_in=w_in, w_out=w_out,
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


def _rms_norm(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    sq = np.multiply(x, x, out=out)
    return np.divide(x, np.sqrt(np.mean(sq, axis=-1, keepdims=True) + _NORM_EPS), out=out)


def _rms_row(x: np.ndarray) -> np.ndarray:
    """_rms_norm of one 1-D row, bit for bit, with its scalar steps as Python floats."""
    return x / math.sqrt(float(np.add.reduce(x * x)) / x.shape[0] + _NORM_EPS)


def _norm_project(x: np.ndarray, w_qkv: np.ndarray, q_scale: float) -> list[np.ndarray]:
    """Q (times q_scale), K and V of the RMS-normed rows of x, through w_qkv's column
    blocks into three arrays, in row pieces."""
    h, qkv = np.empty_like(x), [np.empty(x.shape) for _ in range(3)]
    weights = np.split(w_qkv, 3, axis=1)

    def rows(r: slice) -> None:
        _rms_norm(x[r], out=h[r])
        for w, out in zip(weights, qkv):
            np.matmul(h[r], w, out=out[r])
        qkv[0][r] *= q_scale

    _by_rows(len(x), rows)
    return qkv


def _add_product(x: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)  # x + a @ w, in row pieces
    _by_rows(len(x), lambda r: np.add(np.matmul(a[r], w, out=out[r]), x[r], out=out[r]))
    return out


def _mlp(x: np.ndarray, w_in: np.ndarray, w_out: np.ndarray) -> np.ndarray:
    """x plus the ReLU MLP of its RMS-normed rows, in row pieces; the normed rows borrow out's."""
    out, hidden = np.empty_like(x), np.empty((len(x), w_in.shape[1]))

    def rows(r: slice) -> None:
        h = np.matmul(_rms_norm(x[r], out=out[r]), w_in, out=hidden[r])
        np.add(np.matmul(np.maximum(h, 0.0, out=h), w_out, out=out[r]), x[r], out=out[r])

    _by_rows(len(x), rows)
    return out


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

    Text is the last text_len entries of every layer; decode attends to every
    entry. decode() reads the cache and never writes it.
    """

    prompt_len: int
    text_len: int
    k: list[np.ndarray] = field(default_factory=list)           # (n_l, d_model)
    v: list[np.ndarray] = field(default_factory=list)

    def entry_counts(self) -> list[int]:
        """Stored entries per layer."""
        return [k.shape[0] for k in self.k]


@dataclass
class PrefillResult:
    cache: KvCache
    final_logits: np.ndarray     # logits at the last prompt position
    layer_lengths: list[int]     # sequence length entering each layer: cache.entry_counts()


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _score_bound(model: ToyModel, layer: int) -> float:
    """Bound on the layer's scores |q·k|/sqrt(head_dim): Q and K project RMS-normed rows,
    whose |h|² = d·m/(m+eps) < d, so head h's scores are below
    d·‖Wq_h‖_F·‖Wk_h‖_F/sqrt(head_dim), Wq_h and Wk_h its column blocks of w_qkv."""
    d, heads = model.d_model, model.heads
    wq, wk = (np.linalg.norm(w.reshape(d, heads, -1), axis=(0, 2))
              for w in np.split(model.w_qkv[layer], 3, axis=1)[:2])
    return float(np.max(wq * wk)) * d / math.sqrt(model.head_dim)


def _needs_shift(model: ToyModel, layer: int) -> bool:
    """Whether the layer's softmax subtracts the row max: only if exp(s) could overflow."""
    return _score_bound(model, layer) > _EXP_SAFE


def _causal_exp(q: np.ndarray, k: np.ndarray, start: int, stop: int, upper: np.ndarray,
                shift: bool, out: np.ndarray | None = None) -> np.ndarray:
    """(heads, stop-start, stop) softmax numerators of query rows [start:stop].

    q is pre-scaled by 1/sqrt(head_dim). Row i sees keys [:i+1]. Keys before
    start are visible to every row, so only the diagonal tile [start:stop,
    start:stop] is masked, where the bool upper triangle `upper` (at least
    stop-start rows) is set. With shift the numerators are exp(s - row max),
    masked scores -inf; without it (_needs_shift) they are exp(s), masked
    entries set to 0 after exp, so no -inf goes into exp. The block is
    written into out when given.
    """
    rows = stop - start
    s = np.matmul(q[:, start:stop], k[:, :stop].transpose(0, 2, 1), out=out)
    diag, masked = s[:, :, start:], upper[:rows, :rows]
    if shift:
        np.copyto(diag, -np.inf, where=masked)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
    else:
        np.exp(s, out=s)
        np.copyto(diag, 0.0, where=masked)
    return s


def _upper_mask(size: int) -> np.ndarray:
    return np.triu(np.ones((size, size), dtype=bool), k=1)


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@functools.cache  # two racing first calls may build a spare pool; both work
def _head_pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(thread_name_prefix="metok-heads")


def _fan_out(work, tasks: list, workers: int) -> None:
    """work(slot, task) for every task, pulled in order by `workers` threads, slot 0 the caller's.

    Pulling, not a fixed share per thread, keeps every CPU busy when one runs slow.
    """
    todo = queue.SimpleQueue()
    for task in tasks:
        todo.put(task)

    def run(slot: int) -> None:
        while True:
            try:
                task = todo.get_nowait()
            except queue.Empty:
                return
            work(slot, task)

    pending = [_head_pool().submit(run, slot) for slot in range(1, workers)]
    try:
        run(0)
    finally:  # no task may still write into the caller's buffers once this call has ended
        wait(pending)
    for job in pending:
        job.result()


def _by_rows(n: int, work) -> None:
    """work(rows) on each piece of n rows, at most one worker per CPU; pieces depend only on n."""
    pieces = max(1, n // _ROWS)
    if pieces == 1:  # on the caller's thread
        return work(slice(None))
    rows = [slice(p * n // pieces, (p + 1) * n // pieces) for p in range(pieces)]
    _fan_out(lambda _, r: work(r), rows, min(_usable_cpus(), pieces))


def _causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, first: int = 0, *,
                      shift: bool) -> np.ndarray:
    """(n-first, heads*head_dim) causal attention of split-head query rows [first:n], in blocks.

    At most one worker per usable CPU and per head, the first on the caller's
    thread, pulls (head, query block) tasks and scores each into its own
    (_QBLOCK, n) workspace, reading only the keys the block can see. P·V goes
    straight into the output and is normalised there. No task's arithmetic
    depends on its worker.
    """
    heads, n, head_dim = q.shape
    block = min(_QBLOCK, n - first)
    upper = _upper_mask(block)
    workers = max(1, min(_usable_cpus(), heads, heads * block * n // _CHUNK_SCORES))
    scores = np.empty((workers, 1, block, n))
    out = np.empty((n - first, heads, head_dim))

    def attend(slot: int, task: tuple[int, int]) -> None:  # one head's block into its slots of out
        h, start = task
        stop = min(start + block, n)
        e = _causal_exp(q[h : h + 1], k[h : h + 1], start, stop, upper, shift,
                        scores[slot, :, : stop - start, :stop])[0]
        pv = np.matmul(e, v[h, :stop], out=out[start - first : stop - first, h])
        pv /= e.sum(axis=-1, keepdims=True)

    # the widest blocks (they see the most keys) go first, so the last tasks are short
    _fan_out(attend, [(h, start) for start in reversed(range(first, n, block))
                      for h in range(heads)], workers)
    return out.reshape(n - first, heads * head_dim)


def _prune_boundary(
    sched: PruneSchedule,
    layer: int,
    q: np.ndarray,
    k: np.ndarray,
    is_key: np.ndarray,
    text_len: int,
    shift: bool,
) -> np.ndarray:
    """Keep mask over the incoming rows of a boundary layer, from its text rows' attention.

    q (pre-scaled) and k are the layer's split-head projections of the
    incoming rows. The last text_len rows are text and always kept; their
    post-softmax (heads, text_len, n) block is all the importance rule reads.
    """
    n = q.shape[1]
    attn = _causal_exp(q, k, n - text_len, n, _upper_mask(text_len), shift)
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
    cache = KvCache(prompt_len=x.shape[0], text_len=inp.text_len)
    q_scale = 1.0 / math.sqrt(model.head_dim)
    for layer in range(model.layers):
        # RMS-norm and the projections act row by row, so a boundary layer
        # scores from its incoming rows and keeps the survivors' projections.
        q_flat, k_flat, v_flat = _norm_project(x, model.w_qkv[layer], q_scale)
        shift = _needs_shift(model, layer)
        if layer in boundaries:
            keep = _prune_boundary(
                sched, layer, _split_heads(q_flat, model.heads),
                _split_heads(k_flat, model.heads), is_key, inp.text_len, shift,
            )
            x, is_key = x[keep], is_key[keep[: len(is_key)]]
            q_flat, k_flat, v_flat = q_flat[keep], k_flat[keep], v_flat[keep]
        n = x.shape[0]
        cache.k.append(k_flat)
        cache.v.append(v_flat)
        first = n - 1 if layer == model.layers - 1 else 0
        # no name keeps the attention output alive into the next layer's workspace
        x = _add_product(x[first:], _causal_attention(
            _split_heads(q_flat, model.heads),
            _split_heads(k_flat, model.heads),
            _split_heads(v_flat, model.heads),
            first, shift=shift,
        ), model.wo[layer])
        x = _mlp(x, model.w_in[layer], model.w_out[layer])
    final_logits = _rms_norm(x[-1:])[0] @ model.unembed
    return PrefillResult(cache=cache, final_logits=final_logits,
                         layer_lengths=cache.entry_counts())


def apply_kv_policy(cache: KvCache, drop_layer: int) -> KvCache:
    """Drop cached visual entries from drop_layer upward; text always stays.

    Those layers keep a copy of only their text tail. Every array the policy
    does not filter is the input cache's own, shared rather than copied: both
    caches are read-only. Decoding the result equals decoding the input with
    those entries' attention scores set to -inf, up to float summation order.
    """
    out = KvCache(cache.prompt_len, cache.text_len)
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
    """Greedy decode against every entry of the cache, which is not modified.

    Token 0 is the argmax of first_logits (computed by prefill); each further
    token comes from one forward pass, whose layer-steps project Q, K and V with
    one matmul and keep K and V in split-head buffers beside the caller's cache,
    so decoding twice from one cache gives the same result. Softmax subtracts
    the row max only on layers that _needs_shift. Per forward and layer, the
    head-averaged attention mass on visual vs text PROMPT positions is recorded.
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
    # per layer: cached entries, their visual/text split, split-head K^T and V, generated
    # K/V, and whether softmax shifts
    layers = [(c, np.array([0, c - cache.text_len]), _split_heads(k, heads).transpose(0, 2, 1),
               _split_heads(v, heads), np.empty((2, heads, gen, head_dim)),
               _needs_shift(model, layer))
              for layer, (c, k, v) in enumerate(zip(counts, cache.k, cache.v))]
    scores = np.empty(heads * (max(counts) + gen))
    for s in range(gen):
        x = model.embed[np.argmax(logits[s])] + positions[s]
        for layer, (c, split, k_c, v_c, gen_kv, shift) in enumerate(layers):
            qkv = _rms_row(x) @ model.w_qkv[layer]
            gen_kv[:, :, s] = qkv[d:].reshape(2, heads, head_dim)
            q = qkv[:d].reshape(heads, 1, head_dim)
            row = scores[: heads * (c + s + 1)].reshape(heads, 1, c + s + 1)
            np.matmul(q, k_c, out=row[:, :, :c])
            np.matmul(q, gen_kv[0, :, : s + 1].transpose(0, 2, 1), out=row[:, :, c:])
            p = row[:, 0]
            p /= scale
            if shift:
                p -= np.maximum.reduce(p, axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=-1, keepdims=True)
            np.add.reduceat(np.add.reduce(p[:, :c], axis=0), split, out=attn_split[s, layer])
            out = p[:, None, :c] @ v_c
            out += p[:, None, c:] @ gen_kv[1, :, : s + 1]
            x += out.reshape(d) @ model.wo[layer]
            # inline, not _mlp: its row-piece buffers and calls cost a decode step ~3%
            hidden = _rms_row(x) @ model.w_in[layer]
            x += np.maximum(hidden, 0.0, out=hidden) @ model.w_out[layer]
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
