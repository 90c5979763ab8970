"""Tests for random walks, SGNS and the embedding dispatcher.

The key semantic property: nodes that co-occur on walks (structurally close
nodes) end up closer in embedding space than unrelated nodes — which is why
the paper uses these methods to initialise road/time-slot embeddings.
"""

import numpy as np
import pytest

from repro.embedding import (
    EmbeddingConfig, SkipGramConfig, build_pairs, embed_graph,
    generate_node2vec_walks, generate_walks, train_line, train_skipgram,
    unigram_distribution,
)
from repro.embedding.line import LineConfig
from repro.roadnet import WeightedDigraph
from tests.oracles.embedding import weighted_choice


def ring_graph(n=12):
    g = WeightedDigraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n, 1.0)
        g.add_edge((i + 1) % n, i, 1.0)
    return g


def two_cliques(k=5):
    """Two dense clusters joined by one weak bridge."""
    g = WeightedDigraph(2 * k)
    for base in (0, k):
        for i in range(k):
            for j in range(k):
                if i != j:
                    g.add_edge(base + i, base + j, 1.0)
    g.add_edge(0, k, 0.1)
    g.add_edge(k, 0, 0.1)
    return g


class TestWalks:
    def test_walks_respect_adjacency(self):
        g = ring_graph()
        walks = generate_walks(g, num_walks=2, walk_length=10,
                               rng=np.random.default_rng(0))
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert g.weight(a, b) > 0

    def test_walk_counts(self):
        g = ring_graph(8)
        walks = generate_walks(g, num_walks=3, walk_length=5,
                               rng=np.random.default_rng(1))
        assert len(walks) == 3 * 8

    def test_walks_stop_at_sinks(self):
        g = WeightedDigraph(3)
        g.add_edge(0, 1, 1.0)   # node 1 and 2 are sinks
        walks = generate_walks(g, num_walks=1, walk_length=10,
                               rng=np.random.default_rng(2))
        for walk in walks:
            if walk[0] == 0:
                assert walk == [0, 1]
            else:
                assert len(walk) == 1

    def test_weights_bias_transitions(self):
        g = WeightedDigraph(3)
        g.add_edge(0, 1, 100.0)
        g.add_edge(0, 2, 1.0)
        rng = np.random.default_rng(3)
        counts = {1: 0, 2: 0}
        for _ in range(300):
            nxt = weighted_choice(rng, [1, 2], [100.0, 1.0])
            counts[nxt] += 1
        assert counts[1] > 250

    def test_weighted_choice_rejects_bad_weights(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            weighted_choice(rng, [1, 2], [1.0, float("nan")])
        with pytest.raises(ValueError):
            weighted_choice(rng, [1, 2], [1.0, -0.5])

    def test_weighted_choice_zero_total_uniform(self):
        """All-zero weights fall back to a uniform choice (both walk
        families hit this on zero-weight rows and must agree)."""
        rng = np.random.default_rng(6)
        counts = {1: 0, 2: 0}
        for _ in range(400):
            counts[weighted_choice(rng, [1, 2], [0.0, 0.0])] += 1
        assert counts[1] > 120 and counts[2] > 120

    def test_zero_weight_rows_consistent_across_walk_types(self):
        """First-order and node2vec walks both traverse zero-weight rows
        uniformly instead of diverging (one crashing / one skipping)."""
        g = WeightedDigraph(3)
        g.add_edge(0, 1, 0.0)
        g.add_edge(0, 2, 0.0)
        w1 = generate_walks(g, 30, 3, rng=np.random.default_rng(7))
        w2 = generate_node2vec_walks(g, 30, 3, p=2.0, q=0.5,
                                     rng=np.random.default_rng(8))
        for walks in (w1, w2):
            succ = {w[1] for w in walks if w[0] == 0 and len(w) > 1}
            assert succ == {1, 2}

    def test_node2vec_walks_valid(self):
        g = ring_graph()
        walks = generate_node2vec_walks(g, 2, 8, p=0.5, q=2.0,
                                        rng=np.random.default_rng(4))
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert g.weight(a, b) > 0

    def test_node2vec_return_parameter(self):
        """Tiny p makes returning to the previous node very likely."""
        g = ring_graph(6)
        rng = np.random.default_rng(5)
        walks = generate_node2vec_walks(g, 10, 12, p=0.01, q=1.0, rng=rng)
        returns = sum(
            1 for walk in walks for i in range(2, len(walk))
            if walk[i] == walk[i - 2])
        steps = sum(max(len(w) - 2, 0) for w in walks)
        assert returns / steps > 0.5

    def test_invalid_parameters(self):
        g = ring_graph()
        with pytest.raises(ValueError):
            generate_walks(g, 0, 5)
        with pytest.raises(ValueError):
            generate_walks(g, 1, 1)
        with pytest.raises(ValueError):
            generate_node2vec_walks(g, 1, 5, p=0.0)


class TestSkipGram:
    def test_build_pairs_window(self):
        pairs = build_pairs([[0, 1, 2, 3]], window=1)
        as_set = {tuple(p) for p in pairs}
        assert (0, 1) in as_set and (1, 0) in as_set
        assert (0, 2) not in as_set

    def test_build_pairs_empty_raises(self):
        with pytest.raises(ValueError):
            build_pairs([[0]], window=2)

    def test_unigram_distribution_normalised(self):
        dist = unigram_distribution([[0, 1, 1, 2]], 4)
        assert dist.sum() == pytest.approx(1.0)
        assert dist[1] > dist[0] > 0
        # Nodes never observed on any walk must get NO noise mass:
        # word2vec's unigram^0.75 is over the observed vocabulary only.
        assert dist[3] == 0

    def test_unigram_distribution_single_node_vocab(self):
        """A degenerate one-node vocabulary falls back to uniform."""
        dist = unigram_distribution([[2, 2, 2]], 4)
        assert dist == pytest.approx(np.full(4, 0.25))

    def test_unigram_matches_powered_counts(self):
        walks = [[0, 0, 0, 1], [1, 2]]
        dist = unigram_distribution(walks, 3)
        counts = np.array([3.0, 2.0, 1.0]) ** 0.75
        assert dist == pytest.approx(counts / counts.sum())

    def test_clusters_separate_in_embedding_space(self):
        """Structural proximity must map to embedding proximity."""
        g = two_cliques(5)
        emb = embed_graph(g, EmbeddingConfig(
            method="deepwalk", dim=16, num_walks=12, walk_length=10,
            epochs=3, seed=0))
        emb = emb / (np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12)
        intra = np.mean([emb[i] @ emb[j]
                         for i in range(5) for j in range(5) if i != j])
        inter = np.mean([emb[i] @ emb[j + 5]
                         for i in range(5) for j in range(5)])
        assert intra > inter

    def test_embedding_shape(self):
        g = ring_graph(10)
        emb = train_skipgram(
            generate_walks(g, 2, 8, rng=np.random.default_rng(0)),
            10, SkipGramConfig(dim=12, epochs=1),
            np.random.default_rng(0))
        assert emb.shape == (10, 12)
        assert np.isfinite(emb).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SkipGramConfig(dim=0)
        with pytest.raises(ValueError):
            SkipGramConfig(lr=0.0)


class TestLine:
    def test_line_shape_and_finite(self):
        g = ring_graph(10)
        emb = train_line(g, LineConfig(dim=8, samples=5000),
                         np.random.default_rng(0))
        assert emb.shape == (10, 8)
        assert np.isfinite(emb).all()

    def test_line_first_order(self):
        g = two_cliques(4)
        emb = train_line(g, LineConfig(dim=8, order=1, samples=20000),
                         np.random.default_rng(1))
        emb = emb / (np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12)
        intra = np.mean([emb[i] @ emb[j]
                         for i in range(4) for j in range(4) if i != j])
        inter = np.mean([emb[i] @ emb[j + 4]
                         for i in range(4) for j in range(4)])
        assert intra > inter

    def test_line_invalid_config(self):
        with pytest.raises(ValueError):
            LineConfig(order=3)
        g = WeightedDigraph(3)
        with pytest.raises(ValueError):
            train_line(g, rng=np.random.default_rng(0))

    def test_line_requires_generator(self):
        with pytest.raises(TypeError):
            train_line(ring_graph(4))


class TestDispatcher:
    def test_all_methods_run(self):
        g = ring_graph(8)
        for method in ("node2vec", "deepwalk", "line"):
            emb = embed_graph(g, EmbeddingConfig(
                method=method, dim=8, num_walks=2, walk_length=6,
                line_samples=2000, seed=1))
            assert emb.shape == (8, 8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(method="gnn")

    def test_deterministic_given_seed(self):
        g = ring_graph(8)
        cfg = EmbeddingConfig(method="node2vec", dim=8, num_walks=2,
                              walk_length=6, seed=42)
        a = embed_graph(g, cfg)
        b = embed_graph(g, cfg)
        np.testing.assert_allclose(a, b)
