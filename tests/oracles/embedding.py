"""Scalar node2vec/DeepWalk walks and SGNS: the distributional oracles of
the alias-sampled lockstep engine in ``repro.embedding``.

The two engines draw the same per-start distribution over walks and
optimise the same SGNS objective, but consume the RNG in a different
order, so parity is statistical (chi-square over walk frequencies,
downstream MAE bands), not bitwise.  :func:`reference_embedding` swaps
these oracles into ``repro.embedding.embed_graph`` for whole-pipeline
comparisons.
"""

import contextlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embedding import SkipGramConfig, api, unigram_distribution
from repro.embedding.skipgram import _sigmoid
from repro.embedding.walks import _validate, require_generator
from repro.roadnet.linegraph import WeightedDigraph


def weighted_choice(rng: np.random.Generator, items: Sequence[int],
                    weights: Sequence[float]) -> int:
    """Sample one item proportionally to non-negative weights.

    All-zero weights fall back to a uniform draw (every item weight 1);
    NaN or negative weights raise — both walk types share this contract.
    """
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite (got NaN/inf)")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        # All-zero weights: uniform over the items.
        return int(items[rng.integers(len(items))])
    return int(items[rng.choice(len(items), p=w / total)])


def generate_walks_reference(graph: WeightedDigraph, num_walks: int,
                             walk_length: int,
                             rng: np.random.Generator = None
                             ) -> List[List[int]]:
    """Scalar DeepWalk-style walks: one ``rng.choice`` per step."""
    _validate(num_walks, walk_length)
    rng = require_generator(rng, "generate_walks_reference")
    walks: List[List[int]] = []
    nodes = np.arange(graph.num_nodes)
    for _ in range(num_walks):
        rng.shuffle(nodes)
        for start in nodes:
            walk = [int(start)]
            while len(walk) < walk_length:
                nbrs = graph.neighbors(walk[-1])
                if not nbrs:
                    break
                items = [v for v, _ in nbrs]
                weights = [w for _, w in nbrs]
                walk.append(weighted_choice(rng, items, weights))
            walks.append(walk)
    return walks


def generate_node2vec_walks_reference(
        graph: WeightedDigraph, num_walks: int, walk_length: int,
        p: float = 1.0, q: float = 1.0,
        rng: np.random.Generator = None) -> List[List[int]]:
    """Scalar node2vec walks: per-step biased ``rng.choice``."""
    _validate(num_walks, walk_length)
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    rng = require_generator(rng, "generate_node2vec_walks_reference")
    # Neighbour-set cache for the prev-adjacency test.
    nbr_sets: Dict[int, set] = {}

    def neighbors_of(u: int) -> set:
        if u not in nbr_sets:
            nbr_sets[u] = {v for v, _ in graph.neighbors(u)}
        return nbr_sets[u]

    walks: List[List[int]] = []
    nodes = np.arange(graph.num_nodes)
    for _ in range(num_walks):
        rng.shuffle(nodes)
        for start in nodes:
            walk = [int(start)]
            while len(walk) < walk_length:
                cur = walk[-1]
                nbrs = graph.neighbors(cur)
                if not nbrs:
                    break
                raw = [w for _, w in nbrs]
                if sum(raw) <= 0:
                    # All-zero edge weights: uniform base, like the
                    # first-order fallback — the p/q bias still applies.
                    raw = [1.0] * len(nbrs)
                if len(walk) == 1:
                    items = [v for v, _ in nbrs]
                    weights = raw
                else:
                    prev = walk[-2]
                    prev_nbrs = neighbors_of(prev)
                    items, weights = [], []
                    for (v, _), w in zip(nbrs, raw):
                        if v == prev:
                            bias = 1.0 / p
                        elif v in prev_nbrs:
                            bias = 1.0
                        else:
                            bias = 1.0 / q
                        items.append(v)
                        weights.append(w * bias)
                walk.append(weighted_choice(rng, items, weights))
            walks.append(walk)
    return walks


def build_pairs_reference(walks: Sequence[Sequence[int]], window: int
                          ) -> np.ndarray:
    """Scalar pair harvest (the original triple loop)."""
    pairs: List[Tuple[int, int]] = []
    for walk in walks:
        n = len(walk)
        for i, center in enumerate(walk):
            lo = max(0, i - window)
            hi = min(n, i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, walk[j]))
    if not pairs:
        raise ValueError("no training pairs: walks too short?")
    return np.asarray(pairs, dtype=np.int64)


def train_skipgram_reference(walks: Sequence[Sequence[int]], num_nodes: int,
                             config: Optional[SkipGramConfig] = None,
                             rng: np.random.Generator = None
                             ) -> np.ndarray:
    """Original scalar-harvest / ``rng.choice`` / ``np.add.at`` SGNS."""
    config = config or SkipGramConfig()
    rng = require_generator(rng, "train_skipgram_reference")
    pairs = build_pairs_reference(walks, config.window)
    noise = unigram_distribution(walks, num_nodes)

    center_emb = (rng.random((num_nodes, config.dim)) - 0.5) / config.dim
    context_emb = np.zeros((num_nodes, config.dim))

    total_steps = config.epochs * int(np.ceil(len(pairs) / config.batch_size))
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), config.batch_size):
            batch = pairs[order[lo:lo + config.batch_size]]
            lr = max(config.min_lr,
                     config.lr * (1.0 - step / max(total_steps, 1)))
            _sgns_step_reference(center_emb, context_emb, batch, noise,
                                 config.negatives, lr, rng)
            step += 1
    return center_emb


def _sgns_step_reference(center_emb: np.ndarray, context_emb: np.ndarray,
                         batch: np.ndarray, noise: np.ndarray,
                         negatives: int, lr: float,
                         rng: np.random.Generator) -> None:
    centers = batch[:, 0]
    contexts = batch[:, 1]
    b = len(batch)
    c_vecs = center_emb[centers]                       # (B, D)

    # Positive examples.
    pos_vecs = context_emb[contexts]
    pos_score = _sigmoid(np.sum(c_vecs * pos_vecs, axis=1))
    pos_coeff = (pos_score - 1.0)[:, None]             # d/dx of -log sigma
    grad_center = pos_coeff * pos_vecs
    grad_pos = pos_coeff * c_vecs
    np.add.at(context_emb, contexts, -lr * grad_pos)

    # Negative examples.
    if negatives > 0:
        neg = rng.choice(len(noise), size=(b, negatives), p=noise)
        neg_vecs = context_emb[neg]                    # (B, K, D)
        neg_score = _sigmoid(np.einsum("bd,bkd->bk", c_vecs, neg_vecs))
        neg_coeff = neg_score[:, :, None]
        grad_center += np.einsum("bkd->bd", neg_coeff * neg_vecs)
        grad_neg = neg_coeff * c_vecs[:, None, :]
        np.add.at(context_emb, neg.reshape(-1),
                  -lr * grad_neg.reshape(b * negatives, -1))

    np.add.at(center_emb, centers, -lr * grad_center)


@contextlib.contextmanager
def reference_embedding():
    """Run ``embed_graph`` (and so DeepOD pre-training) on the scalar
    walks and SGNS above; the lockstep engine is restored on exit."""
    saved = (api.generate_walks, api.generate_node2vec_walks,
             api.train_skipgram)
    api.generate_walks = generate_walks_reference
    api.generate_node2vec_walks = generate_node2vec_walks_reference
    api.train_skipgram = train_skipgram_reference
    try:
        yield
    finally:
        (api.generate_walks, api.generate_node2vec_walks,
         api.train_skipgram) = saved
