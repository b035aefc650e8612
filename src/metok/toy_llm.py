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
uses every CPU the process may use. Causal attention runs as (head, 128-row
query block) tasks, each scored into its worker's own (block, n) workspace (q
pre-scaled, softmax normalised after P·V), so no (heads, n, n) tensor is built.
A layer whose scores provably fit exp's range (_score_bound) skips softmax's
row-max shift, and no -inf goes into exp there.
RMS norm, the projections, Wo and the MLP run in fixed pieces of 256-511 rows,
each piece's normed and hidden rows in its worker's scratch slot. P·V is
written over Q and Wo adds the residual there, so beside the cache a layer
holds its input rows, Q and the workers' scratch. Buffers are allocated by the
calling thread and the bits do not depend on the CPU count. The final layer
projects Q for, and runs, only the last prompt row, so the executed work is
below the counted 4*n^2*d attention terms.
Prefill leaves `room` spare rows after each layer's cache entries. Decode writes
its generated K/V there and never over an entry, so a decode layer-step scores
the prompt's and its own keys as one array. Of a layer-step, the four weight
gemvs take about half, one score and one P·V matmul about a quarter, and ~15
small numpy calls the rest; the floor is streaming the float64 weights (19 MB a
forward at d_model 128, 12 layers).
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
    "DecodeOutput", "KvCache", "PrefillResult", "ToyModel", "apply_kv_policy",
    "attention_ratio_trace", "build_prefill_input", "decode", "init_model", "prefill",
]

VOCAB = 256
_NORM_EPS = 1e-6
_PROJECTOR_SALT = 0x56495350
# Query rows per causal-attention block. Fixed, not configurable: results
# differ across block sizes by float summation order, so one constant keeps
# every run bit-reproducible.
_QBLOCK = 128
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

    @functools.cached_property
    def shifts(self) -> tuple[bool, ...]:
        """Per layer, whether its softmax subtracts the row max (_needs_shift), computed
        once: a model with other weights is a new ToyModel (dataclasses.replace)."""
        return tuple(_needs_shift(self, layer) for layer in range(self.layers))


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


def _norm_project(x: np.ndarray, w_qkv: np.ndarray, q_scale: float, first: int,
                  room: int) -> list[np.ndarray]:
    """Q (times q_scale) of rows [first:] and K and V of every row of x, RMS-normed, through
    w_qkv's column blocks into three arrays, in row pieces normed into their scratch; K and V
    have room spare rows after x's."""
    n, d = x.shape
    q, k, v = np.empty((n - first, d)), np.empty((n + room, d)), np.empty((n + room, d))
    wq, wk, wv = np.split(w_qkv, 3, axis=1)

    def rows(r: slice, h: np.ndarray) -> None:
        _rms_norm(x[r], out=h)
        np.matmul(h, wk, out=k[r])
        np.matmul(h, wv, out=v[r])
        qr = q[max(r.start - first, 0) : max(r.stop - first, 0)]  # its rows from first on, if any
        np.matmul(h[len(h) - len(qr) :], wq, out=qr)
        qr *= q_scale

    _by_rows(len(x), rows, x.shape[1])
    return [q, k, v]


def _add_product(x: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x + a @ w written over a, in row pieces; each product goes into its piece's scratch."""
    _by_rows(len(x), lambda r, s: np.add(x[r], np.matmul(a[r], w, out=s), out=a[r]), w.shape[1])
    return a


def _mlp(x: np.ndarray, w_in: np.ndarray, w_out: np.ndarray) -> None:
    """Add the ReLU MLP of x's RMS-normed rows to x in place, in row pieces; a piece's
    normed rows, then its output, and its hidden rows go into its scratch."""
    d = x.shape[1]

    def rows(r: slice, s: np.ndarray) -> None:
        h = np.matmul(_rms_norm(x[r], out=s[:, :d]), w_in, out=s[:, d:])
        np.add(x[r], np.matmul(np.maximum(h, 0.0, out=h), w_out, out=s[:, :d]), out=x[r])

    _by_rows(len(x), rows, d + w_in.shape[1])


def build_prefill_input(model: ToyModel, stream: TokenStream, text: TextEmbedding) -> np.ndarray:
    """(n, d_model) model input: projected visual tokens, then embedded prompt ids, plus
    positions; row i carries position i's encoding, and the last text.num_tokens are text."""
    proj = visual_projection(model.seed, stream.dim, model.d_model)
    x_vis = stream.tokens @ proj
    x_text = model.embed[text.token_ids % model.vocab]
    x = np.concatenate([x_vis, x_text], axis=0)
    return x + sinusoidal_positions(np.arange(x.shape[0]), model.d_model)


@dataclass
class KvCache:
    """Per-layer cached keys/values of the surviving prompt rows, in prompt order.

    Each layer's K and V hold its entries, then `room` spare rows. Text is the
    last text_len entries of every layer; decode attends to every entry and
    writes each generated token's K and V into the spare rows, never into an
    entry.
    """

    prompt_len: int
    text_len: int
    room: int = 0
    k: list[np.ndarray] = field(default_factory=list)           # (n_l + room, d_model)
    v: list[np.ndarray] = field(default_factory=list)

    def entry_counts(self) -> list[int]:
        """Stored entries per layer, the spare rows not counted."""
        return [len(k) - self.room for k in self.k]


def _with_room(a: np.ndarray, rows: np.ndarray, room: int) -> np.ndarray:
    """a's rows at the indices `rows`, then room spare rows, in one new array."""
    out = np.empty((len(rows) + room, a.shape[1]))
    # the indices are in range; take's default mode would copy through a temporary
    np.take(a, rows, axis=0, out=out[: len(rows)], mode="clip")
    return out


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


def _causal_exp(q: np.ndarray, k: np.ndarray, start: int, upper: np.ndarray,
                shift: bool, out: np.ndarray | None = None) -> np.ndarray:
    """(heads, rows, stop) softmax numerators of the query rows q, rows [start:stop] of k's.

    q is pre-scaled by 1/sqrt(head_dim). Row i sees keys [:i+1]. Keys before
    start are visible to every row, so only the diagonal tile [start:stop,
    start:stop] is masked, where the bool upper triangle `upper` (at least
    stop-start rows) is set. With shift the numerators are exp(s - row max),
    masked scores -inf; without it (_needs_shift) they are exp(s), masked
    entries set to 0 after exp, so no -inf goes into exp. The block is
    written into out when given.
    """
    rows = q.shape[1]
    s = np.matmul(q, k[:, : start + rows].transpose(0, 2, 1), out=out)
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


def _by_rows(n: int, work, width: int) -> None:
    """work(rows, scratch) on each piece of n rows, at most one worker per CPU; pieces depend
    only on n. scratch is the (piece rows, width) top of its worker's slot of one buffer."""
    pieces = max(1, n // _ROWS)
    rows = [slice(p * n // pieces, (p + 1) * n // pieces) for p in range(pieces)]
    workers = min(_usable_cpus(), pieces)  # a single piece runs on the caller's thread
    scratch = np.empty((workers, -(-n // pieces), width))
    _fan_out(lambda slot, r: work(r, scratch[slot, : r.stop - r.start]), rows, workers)


def _causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, *, shift: bool) -> np.ndarray:
    """Causal attention of the split-head query rows q, the last rows of k's n, written over q.

    At most one worker per usable CPU and per head, the first on the caller's
    thread, pulls (head, query block) tasks and scores each into its own
    (_QBLOCK, n) workspace, reading only the keys the block can see. P·V goes
    into the rows of q the task has just read, which no other task reads, and
    is normalised there. No task's arithmetic depends on its worker. Returns
    q's rows as one (rows, heads*head_dim) array, a view when q is one.
    """
    heads, rows, head_dim = q.shape
    first, n = k.shape[1] - rows, k.shape[1]
    block = min(_QBLOCK, rows)
    upper = _upper_mask(block)
    workers = max(1, min(_usable_cpus(), heads, heads * block * n // _CHUNK_SCORES))
    scores = np.empty((workers, 1, block, n))

    def attend(slot: int, task: tuple[int, int]) -> None:  # one head's block, over its q rows
        h, start = task
        stop = min(start + block, n)
        qb = q[h : h + 1, start - first : stop - first]
        e = _causal_exp(qb, k[h : h + 1], start, upper, shift,
                        scores[slot, :, : stop - start, :stop])[0]
        pv = np.matmul(e, v[h, :stop], out=qb[0])
        pv /= e.sum(axis=-1, keepdims=True)

    # the widest blocks (they see the most keys) go first, so the last tasks are short
    _fan_out(attend, [(h, start) for start in reversed(range(first, n, block))
                      for h in range(heads)], workers)
    return q.transpose(1, 0, 2).reshape(rows, heads * head_dim)


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

    q holds the layer's split-head queries (pre-scaled) of the last text_len
    rows, which are text and always kept, and k its keys of every incoming row;
    the text rows' post-softmax (heads, text_len, n) block is all the importance
    rule reads.
    """
    n = k.shape[1]
    attn = _causal_exp(q, k, n - text_len, _upper_mask(text_len), shift)
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


def prefill(model: ToyModel, stream: TokenStream, sched: PruneSchedule,
            text: TextEmbedding, room: int = 0) -> PrefillResult:
    """Forward the stream's visual tokens then the prompt, pruning visual tokens at each
    boundary layer's input; stream and text are only read.

    Caches each layer's keys/values for its surviving positions, so the cache's
    entry counts are the sequence lengths entering the layers, with room spare
    rows after each layer's entries, enough for decode to generate room + 1
    tokens. The cache takes K/V from each layer's input, so the final layer
    projects Q, and runs attention, Wo and the MLP, only for the last prompt
    row, the one final_logits reads (for its text rows when it is a boundary
    layer, whose scoring reads them). Prefill builds its own input rows and frees them after
    layer 0. Attention writes its output over Q, Wo adds the residual there, and
    the MLP updates that stream in place, so a layer holds its input rows and Q
    beside the cache, plus per-worker scratch.
    """
    x = build_prefill_input(model, stream, text)
    is_key, text_len = stream.key_event, text.num_tokens
    boundaries = set(sched.boundary_layers())
    cache = KvCache(prompt_len=x.shape[0], text_len=text_len, room=room)
    q_scale = 1.0 / math.sqrt(model.head_dim)
    last, heads = model.layers - 1, model.heads
    for layer in range(model.layers):
        # the final layer's queries: its last row, or the text rows a boundary scores from
        first = 0 if layer < last else len(x) - (text_len if layer in boundaries else 1)
        q, k, v = _norm_project(x, model.w_qkv[layer], q_scale, first, room)
        shift = model.shifts[layer]
        if layer in boundaries:
            # RMS-norm and the projections act row by row, so a boundary layer
            # scores from its incoming rows and keeps the survivors' projections.
            keep = _prune_boundary(sched, layer, _split_heads(q[len(q) - text_len :], heads),
                                   _split_heads(k[: len(x)], heads), is_key, text_len, shift)
            x, is_key = x[keep], is_key[keep[: len(is_key)]]
            q = q[keep[first:]]
            k, v = (_with_room(a, np.flatnonzero(keep), room) for a in (k, v))
        cache.k.append(k)
        cache.v.append(v)
        attn = _causal_attention(*(_split_heads(a[: len(x)], heads) for a in (q, k, v)),
                                 shift=shift)
        x = _add_product(x[len(x) - len(q) :], attn, model.wo[layer])  # the stream, in q's rows
        _mlp(x, model.w_in[layer], model.w_out[layer])
    final_logits = _rms_norm(x[-1:])[0] @ model.unembed
    return PrefillResult(cache=cache, final_logits=final_logits,
                         layer_lengths=cache.entry_counts())


def apply_kv_policy(cache: KvCache, drop_layer: int) -> KvCache:
    """Drop cached visual entries from drop_layer upward; text always stays.

    Those layers keep a copy of only their text tail, with the input's room
    after it. Every array the policy does not filter, a layer below drop_layer
    or one that holds only text, is the input cache's own, shared rather than
    copied, so decoding either cache writes the spare rows of the shared
    layers; no entry of either is ever written. Decoding the result
    equals decoding the input with those entries' attention scores set to -inf,
    up to float summation order.
    """
    out = KvCache(cache.prompt_len, cache.text_len, cache.room)
    for layer, (c, k, v) in enumerate(zip(cache.entry_counts(), cache.k, cache.v)):
        if layer >= drop_layer and c > cache.text_len:
            tail = np.arange(c - cache.text_len, c)
            k, v = (_with_room(a, tail, cache.room) for a in (k, v))
        out.k.append(k)
        out.v.append(v)
    return out


@dataclass
class DecodeOutput:
    tokens: np.ndarray            # (steps,) generated ids, greedy argmax
    logits: np.ndarray            # (steps, vocab); row s produced token s

    @property
    def num_forwards(self) -> int:
        return len(self.logits) - 1


def decode(model: ToyModel, cache: KvCache, steps: int, first_logits: np.ndarray,
           masses: np.ndarray | None = None) -> DecodeOutput:
    """Greedy decode against every entry of a cache that prefill made on this model.

    Token 0 is the argmax of first_logits (computed by prefill); each further
    token comes from one forward pass. Forward s writes each layer's K and V
    into row c + s, c the layer's entry count: decode writes only the cache's
    spare rows, never an entry, so it needs room >= steps - 1, and decoding
    twice from one cache gives the same result; two decodes that share a cache
    layer must not run at once. Softmax subtracts the row max
    only on layers that _needs_shift. Given masses, a (steps-1, layers, 2)
    array, decode writes each forward's and layer's head-averaged attention
    mass on the visual and on the text prompt entries there.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if np.shape(first_logits) != (model.vocab,):
        raise ValueError(f"first_logits must have shape ({model.vocab},)")
    heads, head_dim, d, gen = model.heads, model.head_dim, model.d_model, steps - 1
    if gen > cache.room:
        raise ValueError(f"{steps} steps need {gen} spare cache rows, the cache has {cache.room}")
    logits = np.empty((steps, model.vocab))  # row s produces token s, its argmax
    logits[0] = first_logits
    positions = sinusoidal_positions(np.arange(gen) + cache.prompt_len, d)
    q_scale = 1.0 / math.sqrt(head_dim)
    counts = cache.entry_counts()
    # per layer: entries, K and V, their split-head K^T and V views, and whether softmax shifts
    layers = [(c, k, v, _split_heads(k, heads).transpose(0, 2, 1), _split_heads(v, heads), shift)
              for c, k, v, shift in zip(counts, cache.k, cache.v, model.shifts)]
    scores = np.empty(heads * (max(counts) + gen))
    for s in range(gen):
        x = model.embed[np.argmax(logits[s])] + positions[s]
        for layer, (c, k, v, k_t, v_h, shift) in enumerate(layers):
            qkv = _rms_row(x) @ model.w_qkv[layer]
            k[c + s], v[c + s] = qkv[d : 2 * d], qkv[2 * d :]
            n = c + s + 1
            q = np.multiply(qkv[:d], q_scale, out=qkv[:d]).reshape(heads, 1, head_dim)
            p = np.matmul(q, k_t[:, :, :n], out=scores[: heads * n].reshape(heads, 1, n))
            if shift:
                p -= np.maximum.reduce(p, axis=-1, keepdims=True)
            np.exp(p, out=p)
            total = np.add.reduce(p, axis=-1, keepdims=True)
            if masses is not None:  # each head's visual and text shares of its row sum
                share = np.add.reduceat(p[:, 0, :c], [0, c - cache.text_len], axis=-1) / total[:, 0]
                np.add.reduce(share, axis=0, out=masses[s, layer])
            out = p @ v_h[:, :n]
            out /= total
            x += out.reshape(d) @ model.wo[layer]
            # inline, not _mlp: its row-piece buffers and calls cost a decode step ~3%
            hidden = _rms_row(x) @ model.w_in[layer]
            x += np.maximum(hidden, 0.0, out=hidden) @ model.w_out[layer]
        np.matmul(_rms_row(x), model.unembed, out=logits[s + 1])
    if masses is not None:
        masses /= heads  # the loop summed the heads' shares
        # reduceat has no empty segment: a layer with no visual entry got its first text entry
        masses[:, [c == cache.text_len for c in counts], 0] = 0.0
    return DecodeOutput(tokens=logits.argmax(axis=1), logits=logits)


def attention_ratio_trace(masses: np.ndarray) -> np.ndarray:
    """Per-layer (visual_ratio, text_ratio) over prompt positions, averaged over the
    forwards of decode's (forwards, layers, 2) prompt masses.

    Each step's pair is normalized to sum to 1 before averaging, so layers
    whose cache holds no visual prompt entries report exactly (0, 1).
    """
    if len(masses) < 1:
        raise ValueError("no decode forwards recorded")
    totals = masses.sum(axis=-1, keepdims=True)
    if np.any(totals == 0.0):
        raise ValueError("layer with zero prompt attention mass")
    return (masses / totals).mean(axis=0)
