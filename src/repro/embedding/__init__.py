"""Graph-embedding substrate: DeepWalk, node2vec and LINE in numpy, used to
initialise the road-segment matrix Ws and the time-slot matrix Wt
(Algorithm 1, lines 1-4).

Walk generation and SGNS run on the alias-sampled lockstep engine; the
scalar originals it replaced are the distributional oracles in
``tests/oracles/embedding.py``."""

from .alias import AliasTable, NodeAliasSampler
from .api import EmbeddingConfig, embed_graph
from .line import LineConfig, train_line
from .skipgram import (
    SkipGramConfig, build_pairs, train_skipgram, unigram_distribution,
)
from .walks import generate_node2vec_walks, generate_walks

__all__ = [
    "AliasTable", "NodeAliasSampler",
    "EmbeddingConfig", "embed_graph",
    "LineConfig", "train_line",
    "SkipGramConfig", "build_pairs", "train_skipgram",
    "unigram_distribution",
    "generate_node2vec_walks", "generate_walks",
]
