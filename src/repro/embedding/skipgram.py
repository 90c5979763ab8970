"""Skip-gram with negative sampling (SGNS), vectorised in numpy.

The word2vec-style objective underlying both DeepWalk and node2vec: for
every (center, context) pair harvested from random walks within a window,
maximise ``log sigma(u_c . v_ctx)`` while pushing down ``k`` negatives drawn
from the unigram^{3/4} distribution.  Gradients are applied with plain SGD
and a linearly decaying learning rate, matching the reference
implementations closely enough for initialisation purposes.

``train_skipgram`` harvests pairs with sliding-window index arithmetic
(one numpy op per window offset instead of a Python triple loop); negatives
come from an :class:`~.alias.AliasTable` over the noise distribution (O(1)
per draw instead of ``rng.choice(p=...)`` rebuilding a CDF) and are shared
within blocks of pairs so the negative term becomes batched GEMM;
parameters live in one float32 buffer updated by a single sort +
``reduceat`` segment-sum scatter per chunk.  Updates are applied in chunks
of ``max(batch_size, 8192)`` pairs with the same endpoint-matched linear
lr decay.

The scalar-harvest / ``rng.choice`` / ``np.add.at`` trainer it replaced is
the oracle in ``tests/oracles/embedding.py``.  Both optimise the same
objective in expectation; their outputs are statistically interchangeable
downstream (tested via same-seed DeepOD comparisons), not bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

try:                                    # scipy is optional at runtime: the
    from scipy import sparse as _sparse  # sparse-matmul scatter is ~10x the
except ImportError:                      # sort+reduceat fallback
    _sparse = None

from .alias import AliasTable
from .walks import require_generator

# Pairs per fast-path parameter update (upper bound — small pair sets use
# smaller chunks so SGD still takes enough steps; an explicitly larger
# ``batch_size`` wins) and the sub-block width that shares one negative set.
_FAST_CHUNK = 8192
_NEG_BLOCK = 512
# Minimum parameter updates per epoch the chunk size is shrunk to provide.
_MIN_UPDATES = 16


@dataclass
class SkipGramConfig:
    dim: int = 64
    window: int = 5
    negatives: int = 5
    epochs: int = 2
    lr: float = 0.025
    min_lr: float = 0.0001
    batch_size: int = 512

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.negatives < 0:
            raise ValueError("invalid skip-gram configuration")
        if self.epochs < 1 or self.lr <= 0:
            raise ValueError("invalid training configuration")


def build_pairs(walks: Sequence[Sequence[int]], window: int) -> np.ndarray:
    """Harvest (center, context) pairs within ``window`` of each other.

    Vectorised: walks are grouped by length, and for every offset
    ``d = 1..window`` the (i, i+d) and (i+d, i) pairs of a whole group
    fall out of two array slices.  The result is the same pair *multiset*
    as the reference triple loop, in a different order — SGNS shuffles
    pairs before every epoch, so order is immaterial.
    """
    groups: Dict[int, List[Sequence[int]]] = {}
    for walk in walks:
        groups.setdefault(len(walk), []).append(walk)
    chunks: List[np.ndarray] = []
    for length, group in sorted(groups.items()):
        if length < 2:
            continue
        mat = np.asarray(group, dtype=np.int64)        # (k, length)
        for d in range(1, min(window, length - 1) + 1):
            left = mat[:, :length - d].ravel()
            right = mat[:, d:].ravel()
            chunks.append(np.stack([left, right], axis=1))
            chunks.append(np.stack([right, left], axis=1))
    if not chunks:
        raise ValueError("no training pairs: walks too short?")
    return np.concatenate(chunks, axis=0)


def unigram_distribution(walks: Sequence[Sequence[int]], num_nodes: int,
                         power: float = 0.75) -> np.ndarray:
    """Noise distribution proportional to count^power (word2vec default).

    Only nodes that actually appear in the walks carry noise mass —
    word2vec draws negatives from the *observed* vocabulary, and granting
    smoothed mass to never-visited nodes dilutes the negatives toward
    nodes the model has no positive signal for.  Degenerate vocabularies
    (zero or one distinct node) fall back to uniform over all nodes so
    negative sampling stays well-defined.
    """
    flat = (np.concatenate([np.asarray(w, dtype=np.int64) for w in walks])
            if len(walks) else np.empty(0, dtype=np.int64))
    # repro: allow[N001] float64 counts keep the cumsum normalisation exact
    counts = np.bincount(flat, minlength=num_nodes).astype(np.float64)
    observed = counts > 0
    if observed.sum() <= 1:
        return np.full(num_nodes, 1.0 / num_nodes)
    # repro: allow[N001] noise distribution feeds AliasTable, which is float64
    dist = np.zeros(num_nodes, dtype=np.float64)
    dist[observed] = counts[observed] ** power
    return dist / dist.sum()


def _scatter_add(target: np.ndarray, idx: np.ndarray,
                 updates: np.ndarray, scale: float) -> None:
    """``target[idx] += scale * updates`` with repeated indices.

    With scipy: one sparse (rows, m) selection matrix times the update
    block — a compiled gather-accumulate, the fastest scatter numpy can
    reach from Python.  Without scipy: group repeats with an integer sort
    and segment-sum with ``np.add.reduceat``.  ``scale`` (the -lr factor)
    is applied to the reduced sums, one small array instead of the full
    update matrix.
    """
    m = len(idx)
    if _sparse is not None:
        sel = _sparse.csc_matrix(
            (np.full(m, scale, dtype=updates.dtype),
             idx.astype(np.int32, copy=False),
             np.arange(m + 1, dtype=np.int32)),
            shape=(len(target), m))
        target += sel @ updates
        return
    order = np.argsort(idx)             # sums commute: stability not needed
    idx_sorted = idx[order]
    seg_starts = np.flatnonzero(
        np.r_[True, idx_sorted[1:] != idx_sorted[:-1]])
    sums = np.add.reduceat(updates[order], seg_starts, axis=0)
    sums *= scale
    target[idx_sorted[seg_starts]] += sums


def train_skipgram(walks: Sequence[Sequence[int]], num_nodes: int,
                   config: Optional[SkipGramConfig] = None,
                   rng: np.random.Generator = None) -> np.ndarray:
    """Train SGNS over walks; returns the (num_nodes, dim) input embeddings.

    Fast path: vectorised pair harvest, alias-sampled block-shared
    negatives (GEMM negative term), float32 parameters in one stacked
    buffer, and a single segment-sum scatter per chunk.  ``rng`` is
    required: pretraining must be reproducible (D002).
    """
    config = config or SkipGramConfig()
    rng = require_generator(rng, "train_skipgram")
    pairs = build_pairs(walks, config.window)
    noise = AliasTable(unigram_distribution(walks, num_nodes))
    dim, k = config.dim, config.negatives
    # Large pair sets amortise per-chunk overhead at _FAST_CHUNK; small
    # ones shrink the chunk so each epoch still takes >= _MIN_UPDATES SGD
    # steps (one huge stale step trains poorly on tiny graphs).
    chunk = max(config.batch_size,
                min(_FAST_CHUNK, max(1, len(pairs) // _MIN_UPDATES)))

    # One (2V, D) buffer: rows [0, V) are the center (input) embeddings,
    # rows [V, 2V) the context (output) embeddings, so both matrices take
    # part in one combined scatter per chunk.
    params = np.zeros((2 * num_nodes, dim), dtype=np.float32)
    params[:num_nodes] = ((rng.random((num_nodes, dim)) - 0.5)
                          / dim).astype(np.float32)

    total_steps = config.epochs * int(np.ceil(len(pairs) / chunk))
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), chunk):
            batch = pairs[order[lo:lo + chunk]]
            lr = max(config.min_lr,
                     config.lr * (1.0 - step / max(total_steps, 1)))
            _sgns_chunk_fast(params, num_nodes, batch, noise, k, lr, rng)
            step += 1
    # repro: allow[N001] public API returns the framework's float64 dtype
    return params[:num_nodes].astype(np.float64)


def _sgns_chunk_fast(params: np.ndarray, num_nodes: int, batch: np.ndarray,
                     noise: AliasTable, negatives: int, lr: float,
                     rng: np.random.Generator) -> None:
    """One fast-path update: full blocks of ``_NEG_BLOCK`` pairs share a
    negative sample set each (negative scores/gradients become batched
    GEMM); the ragged tail forms one block of its own."""
    m = len(batch)
    # Sharing K negatives across a block is harmless when the vocabulary
    # dwarfs the block (any row rarely repeats) but degrades small graphs:
    # with block >> V each sampled negative absorbs one huge summed push
    # per chunk instead of many small ones.  Small vocabularies therefore
    # keep per-pair negatives — still alias-sampled and scatter-batched,
    # and cheap at that size.
    share = num_nodes > _NEG_BLOCK and negatives > 0
    block = _NEG_BLOCK if share else m
    nb, width = divmod(m, block)
    splits = ([(nb, block)] if width == 0
              else [(nb, block), (1, width)] if nb
              else [(1, width)])
    done = 0
    for blocks, block_w in splits:
        rows = batch[done:done + blocks * block_w]
        done += blocks * block_w
        centers = rows[:, 0]
        contexts = rows[:, 1] + num_nodes      # context rows live at +V
        c_vecs = params[centers]               # (m', D) float32
        p_vecs = params[contexts]
        pos_score = _sigmoid(np.einsum("md,md->m", c_vecs, p_vecs))
        pos_coeff = (pos_score - 1.0)[:, None]     # d/dx of -log sigma
        grad_center = pos_coeff * p_vecs
        grad_pos = pos_coeff * c_vecs
        if negatives > 0 and share:
            negs = noise.draw(rng, (blocks, negatives))
            n_vecs = params[negs + num_nodes]       # (blocks, K, D)
            c_blk = c_vecs.reshape(blocks, block_w, -1)
            neg_score = _sigmoid(
                np.matmul(c_blk, n_vecs.transpose(0, 2, 1)))
            grad_center += np.matmul(neg_score, n_vecs).reshape(
                len(rows), -1)
            grad_neg = np.matmul(
                neg_score.transpose(0, 2, 1), c_blk).reshape(
                    blocks * negatives, -1)
            ctx_idx = np.concatenate(
                [centers, contexts, negs.reshape(-1) + num_nodes])
            ctx_upd = np.concatenate([grad_center, grad_pos, grad_neg])
        elif negatives > 0:
            negs = noise.draw(rng, (len(rows), negatives))
            n_vecs = params[negs + num_nodes]       # (m', K, D)
            neg_score = _sigmoid(
                np.einsum("md,mkd->mk", c_vecs, n_vecs))
            neg_coeff = neg_score[:, :, None]
            grad_center += np.einsum("mkd->md", neg_coeff * n_vecs)
            grad_neg = (neg_coeff * c_vecs[:, None, :]).reshape(
                len(rows) * negatives, -1)
            ctx_idx = np.concatenate(
                [centers, contexts, negs.reshape(-1) + num_nodes])
            ctx_upd = np.concatenate([grad_center, grad_pos, grad_neg])
        else:
            ctx_idx = np.concatenate([centers, contexts])
            ctx_upd = np.concatenate([grad_center, grad_pos])
        _scatter_add(params, ctx_idx, ctx_upd, np.float32(-lr))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))
