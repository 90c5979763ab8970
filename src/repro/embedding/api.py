"""Unified dispatcher for the three graph-embedding methods (Algorithm 1
lines 1-4 call node2vec; Section 5 notes DeepWalk and LINE were also tried
and node2vec won)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..obs.tracing import NULL_TRACER, Tracer
from ..roadnet.linegraph import WeightedDigraph
from .line import LineConfig, train_line
from .skipgram import SkipGramConfig, train_skipgram
from .walks import generate_node2vec_walks, generate_walks


@dataclass
class EmbeddingConfig:
    """Parameters shared by the walk-based methods plus method choice."""

    method: str = "node2vec"     # node2vec | deepwalk | line
    dim: int = 64
    num_walks: int = 4
    walk_length: int = 20
    window: int = 5
    negatives: int = 5
    epochs: int = 2
    p: float = 1.0               # node2vec return parameter
    q: float = 2.0               # node2vec in-out parameter (DFS-ish)
    line_samples: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("node2vec", "deepwalk", "line"):
            raise ValueError(f"unknown embedding method {self.method!r}")


def embed_graph(graph: WeightedDigraph,
                config: Optional[EmbeddingConfig] = None,
                tracer: Optional[Tracer] = None) -> np.ndarray:
    """Embed all nodes of ``graph``; returns (num_nodes, dim).

    ``node2vec`` / ``deepwalk`` sample walks then train SGNS; ``line``
    trains directly on weighted edge samples.  ``tracer`` receives one
    span per stage (walk sampling, SGNS training, LINE training).
    """
    config = config or EmbeddingConfig()
    tracer = tracer or NULL_TRACER
    rng = np.random.default_rng(config.seed)
    if config.method == "line":
        line_cfg = LineConfig(dim=config.dim, samples=config.line_samples,
                              negatives=config.negatives)
        with tracer.span("embed.line", nodes=graph.num_nodes,
                         samples=config.line_samples, dim=config.dim):
            return train_line(graph, line_cfg, rng)

    with tracer.span("embed.walks", method=config.method,
                     nodes=graph.num_nodes, num_walks=config.num_walks,
                     walk_length=config.walk_length):
        if config.method == "node2vec":
            walks = generate_node2vec_walks(
                graph, config.num_walks, config.walk_length,
                p=config.p, q=config.q, rng=rng)
        else:
            walks = generate_walks(graph, config.num_walks,
                                   config.walk_length, rng=rng)
        tracer.add("walks", len(walks))
    sg_cfg = SkipGramConfig(dim=config.dim, window=config.window,
                            negatives=config.negatives, epochs=config.epochs)
    with tracer.span("embed.sgns", dim=config.dim,
                     epochs=config.epochs, window=config.window):
        return train_skipgram(walks, graph.num_nodes, sg_cfg, rng)
