"""Statistical and equivalence tests for the alias-sampled walk engine.

The vectorized engine must be a *distributional* drop-in for the scalar
oracle in ``tests/oracles/embedding.py``: alias draws must match the exact probabilities (chi-square
goodness of fit), and lockstep walks must visit edges with the same
frequencies as the reference walker — for first-order walks and for
node2vec's second-order rejection sampler at p = q = 1 and p != q.
"""

import numpy as np
import pytest
from scipy import stats

from repro.embedding import (
    AliasTable, NodeAliasSampler, generate_node2vec_walks, generate_walks,
)
from repro.roadnet import WeightedDigraph
from tests.oracles.embedding import (
    generate_node2vec_walks_reference, generate_walks_reference,
)


def skewed_graph(n=8):
    """Ring with strongly asymmetric weights plus chords."""
    g = WeightedDigraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n, 1.0 + 3.0 * (i % 3))
        g.add_edge(i, (i + 2) % n, 0.5)
    return g


def edge_frequencies(walks, n):
    """Normalised (u, v) transition counts over all walks."""
    counts = np.zeros((n, n))
    for walk in walks:
        for a, b in zip(walk, walk[1:]):
            counts[a, b] += 1
    total = counts.sum()
    return counts / max(total, 1.0)


class TestAliasTable:
    def test_draw_matches_distribution_chi_square(self):
        weights = np.array([5.0, 1.0, 3.0, 0.5, 10.0, 2.0])
        table = AliasTable(weights)
        # p-values are uniform across seeds (KS-tested); this fixed seed
        # sits comfortably inside the acceptance region.
        rng = np.random.default_rng(1)
        draws = table.draw(rng, 200_000)
        observed = np.bincount(draws, minlength=len(weights))
        expected = weights / weights.sum() * len(draws)
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.01

    def test_zero_weight_category_never_drawn(self):
        table = AliasTable([1.0, 0.0, 3.0])
        draws = table.draw(np.random.default_rng(1), 50_000)
        assert not (draws == 1).any()

    def test_scalar_draw_shape(self):
        table = AliasTable([1.0, 1.0])
        value = table.draw(np.random.default_rng(2))
        assert value.shape == ()
        assert value in (0, 1)

    def test_matrix_draw_shape(self):
        table = AliasTable([1.0, 2.0, 3.0])
        draws = table.draw(np.random.default_rng(3), (7, 5))
        assert draws.shape == (7, 5)
        assert ((draws >= 0) & (draws < 3)).all()

    def test_invalid_weights_raise(self):
        with pytest.raises(ValueError):
            AliasTable([])
        with pytest.raises(ValueError):
            AliasTable([1.0, float("nan")])
        with pytest.raises(ValueError):
            AliasTable([1.0, float("inf")])
        with pytest.raises(ValueError):
            AliasTable([1.0, -2.0])
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])

    def test_deterministic_under_seed(self):
        table = AliasTable([1.0, 4.0, 2.0, 8.0])
        a = table.draw(np.random.default_rng(42), 1000)
        b = table.draw(np.random.default_rng(42), 1000)
        assert (a == b).all()


class TestNodeAliasSampler:
    def test_per_node_frequencies_chi_square(self):
        g = skewed_graph()
        sampler = NodeAliasSampler(g.to_csr())
        rng = np.random.default_rng(4)
        node = np.zeros(100_000, dtype=np.int64)
        draws = sampler.sample_neighbors(rng, node)
        nbrs = dict(g.neighbors(0))
        targets = sorted(nbrs)
        observed = np.array([(draws == v).sum() for v in targets])
        w = np.array([nbrs[v] for v in targets])
        expected = w / w.sum() * len(draws)
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.01

    def test_zero_weight_row_uniform(self):
        g = WeightedDigraph(3)
        g.add_edge(0, 1, 0.0)
        g.add_edge(0, 2, 0.0)
        sampler = NodeAliasSampler(g.to_csr())
        draws = sampler.sample_neighbors(
            np.random.default_rng(5), np.zeros(20_000, dtype=np.int64))
        frac = (draws == 1).mean()
        assert 0.45 < frac < 0.55


class TestEngineDeterminism:
    def test_first_order_walks_deterministic(self):
        g = skewed_graph()
        w1 = generate_walks(g, 3, 10, rng=np.random.default_rng(7))
        w2 = generate_walks(g, 3, 10, rng=np.random.default_rng(7))
        assert w1 == w2

    def test_node2vec_walks_deterministic(self):
        g = skewed_graph()
        w1 = generate_node2vec_walks(g, 3, 10, p=0.5, q=2.0,
                                     rng=np.random.default_rng(8))
        w2 = generate_node2vec_walks(g, 3, 10, p=0.5, q=2.0,
                                     rng=np.random.default_rng(8))
        assert w1 == w2


class TestLockstepMatchesReference:
    """The lockstep engine consumes randomness differently, so walks are
    not bitwise-equal to the reference — but their edge-transition
    frequency matrices must agree (same Markov chain)."""

    ROUNDS = 60

    def _freqs(self, walk_fn, g, seed, **kw):
        walks = walk_fn(g, self.ROUNDS, 12,
                        rng=np.random.default_rng(seed), **kw)
        return edge_frequencies(walks, g.num_nodes)

    def test_first_order_transition_frequencies(self):
        g = skewed_graph()
        fast = self._freqs(generate_walks, g, 10)
        ref = self._freqs(generate_walks_reference, g, 11)
        assert np.abs(fast - ref).max() < 0.02

    def test_node2vec_p_q_one_matches_first_order(self):
        """At p = q = 1 node2vec degenerates to a first-order walk; the
        rejection sampler must accept everything and reproduce it."""
        g = skewed_graph()
        fast = self._freqs(generate_node2vec_walks, g, 12, p=1.0, q=1.0)
        ref = self._freqs(generate_node2vec_walks_reference, g, 13,
                          p=1.0, q=1.0)
        first = self._freqs(generate_walks, g, 14)
        assert np.abs(fast - ref).max() < 0.02
        assert np.abs(fast - first).max() < 0.02

    def test_node2vec_biased_transition_frequencies(self):
        g = skewed_graph()
        fast = self._freqs(generate_node2vec_walks, g, 15, p=0.25, q=4.0)
        ref = self._freqs(generate_node2vec_walks_reference, g, 16,
                          p=0.25, q=4.0)
        assert np.abs(fast - ref).max() < 0.02

    def test_node2vec_dfs_bias_direction(self):
        """Small q (DFS-like) must raise the chord-taking rate of the
        lockstep walker exactly as it does for the reference."""
        g = skewed_graph()
        chord_rate = {}
        for name, fn in (("fast", generate_node2vec_walks),
                         ("ref", generate_node2vec_walks_reference)):
            walks = fn(g, self.ROUNDS, 12, p=4.0, q=0.25,
                       rng=np.random.default_rng(17))
            chords = sum(1 for w in walks for a, b in zip(w, w[1:])
                         if (b - a) % g.num_nodes == 2)
            steps = sum(len(w) - 1 for w in walks)
            chord_rate[name] = chords / steps
        assert abs(chord_rate["fast"] - chord_rate["ref"]) < 0.05
