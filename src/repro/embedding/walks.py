"""Random-walk generation over weighted digraphs.

DeepWalk samples uniform (weight-proportional) walks; node2vec biases the
walk with return parameter ``p`` and in-out parameter ``q`` [Grover &
Leskovec 2016].  The paper uses these walks over (a) the line graph of the
road network, with trajectory co-occurrence weights steering transition
probabilities, and (b) the weekly temporal graph.

``generate_walks`` / ``generate_node2vec_walks`` run a **lockstep**
engine: all walks advance one step per numpy operation.  First-order
transitions draw from per-node alias tables (O(1) per walker per step);
node2vec's second-order p/q bias is applied by rejection sampling against
the max-bias envelope ``max(1, 1/p, 1/q)`` (KnightKing-style): propose a
first-order step, accept with probability ``bias / envelope``, retry the
rejected walkers.  Walkers whose current node is a sink retire from the
frontier, preserving the variable-length walk semantics.

The scalar one-``rng.choice``-per-step walks this engine replaced are the
oracles in ``tests/oracles/embedding.py``.  Both draw from the same
per-start distribution over walks; only the draw *order* from the RNG
stream differs, so same-seed outputs are deterministic but not bitwise
identical to the oracle's.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..roadnet.linegraph import WeightedDigraph
from .alias import NodeAliasSampler


def require_generator(rng, owner: str) -> np.random.Generator:
    """Embedding pretraining must be reproducible (reprolint D002).

    Seeded node2vec/SGNS initialisation is part of the paper's recipe
    (Section 5.1); an entropy-seeded fallback here silently changes the
    pretrained tables between runs, so callers must thread a Generator.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(
            f"{owner} requires an explicit np.random.Generator (got "
            f"{type(rng).__name__}); pass np.random.default_rng(seed)")
    return rng


def _shuffled_starts(num_nodes: int, num_walks: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Start nodes for all rounds, shuffled per round like the reference."""
    rounds = []
    nodes = np.arange(num_nodes)
    for _ in range(num_walks):
        rng.shuffle(nodes)
        rounds.append(nodes.copy())
    return np.concatenate(rounds)


def _rows_to_walks(matrix: np.ndarray) -> List[List[int]]:
    """Trim the -1 padding of retired walkers back into ragged lists."""
    padded = matrix < 0
    lengths = np.where(padded.any(axis=1), padded.argmax(axis=1),
                       matrix.shape[1])
    return [row[:n].tolist() for row, n in zip(matrix, lengths)]


def generate_walks(graph: WeightedDigraph, num_walks: int, walk_length: int,
                   rng: np.random.Generator = None
                   ) -> List[List[int]]:
    """Weight-proportional random walks (DeepWalk-style), lockstep engine.

    ``num_walks`` walks start from every node; walks stop early at sinks.
    ``rng`` is required: walk corpora must be reproducible (D002).
    """
    _validate(num_walks, walk_length)
    rng = require_generator(rng, "generate_walks")
    csr = graph.to_csr()
    sampler = NodeAliasSampler(csr)
    out_degree = csr.out_degree

    starts = _shuffled_starts(graph.num_nodes, num_walks, rng)
    walks = np.full((len(starts), walk_length), -1, dtype=np.int64)
    walks[:, 0] = starts
    active = np.arange(len(starts))
    for t in range(1, walk_length):
        cur = walks[active, t - 1]
        alive = out_degree[cur] > 0
        active = active[alive]
        if not len(active):
            break
        walks[active, t] = sampler.sample_neighbors(rng, cur[alive])
    return _rows_to_walks(walks)


def generate_node2vec_walks(graph: WeightedDigraph, num_walks: int,
                            walk_length: int, p: float = 1.0, q: float = 1.0,
                            rng: np.random.Generator = None
                            ) -> List[List[int]]:
    """node2vec second-order biased walks, lockstep rejection engine.

    The unnormalised probability of stepping from ``cur`` to ``nxt`` given
    the previous node ``prev`` multiplies the edge weight by

    * ``1/p`` when ``nxt == prev`` (return),
    * ``1``   when ``nxt`` is a neighbour of ``prev`` (BFS-like),
    * ``1/q`` otherwise (DFS-like).

    Rather than materialising the O(E * avg_degree) second-order transition
    tables, each step proposes a weight-proportional neighbour from the
    first-order alias table and accepts it with probability
    ``bias / max(1, 1/p, 1/q)``; rejected walkers redraw.  At p = q = 1
    every proposal is accepted and the engine degenerates to first-order
    sampling with zero overhead.
    """
    _validate(num_walks, walk_length)
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    rng = require_generator(rng, "generate_node2vec_walks")
    csr = graph.to_csr()
    sampler = NodeAliasSampler(csr)
    out_degree = csr.out_degree
    n = graph.num_nodes
    # Flat membership key: rows are contiguous and sorted within, so
    # ``u * n + v`` is globally ascending — one searchsorted answers
    # "is v a neighbour of u" for a whole frontier.
    row_of_slot = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    edge_key = row_of_slot * n + csr.indices
    envelope = max(1.0, 1.0 / p, 1.0 / q)

    starts = _shuffled_starts(n, num_walks, rng)
    walks = np.full((len(starts), walk_length), -1, dtype=np.int64)
    walks[:, 0] = starts
    active = np.arange(len(starts))
    for t in range(1, walk_length):
        cur = walks[active, t - 1]
        alive = out_degree[cur] > 0
        active = active[alive]
        if not len(active):
            break
        if t == 1:
            # No previous node yet: plain first-order step.
            walks[active, 1] = sampler.sample_neighbors(rng, cur[alive])
            continue
        undecided = active
        while len(undecided):
            cur = walks[undecided, t - 1]
            prev = walks[undecided, t - 2]
            cand = sampler.sample_neighbors(rng, cur)
            bias = np.full(len(cand), 1.0 / q)
            key = prev * n + cand
            pos = np.searchsorted(edge_key, key)
            is_prev_nbr = (np.take(edge_key, pos, mode="clip") == key)
            bias[is_prev_nbr] = 1.0
            bias[cand == prev] = 1.0 / p
            accept = rng.random(len(cand)) * envelope < bias
            walks[undecided[accept], t] = cand[accept]
            undecided = undecided[~accept]
    return _rows_to_walks(walks)


def _validate(num_walks: int, walk_length: int) -> None:
    if num_walks < 1:
        raise ValueError("num_walks must be >= 1")
    if walk_length < 2:
        raise ValueError("walk_length must be >= 2")
