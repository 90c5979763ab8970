"""Tests for routing: point-to-point Dijkstra and the perturbed router."""

import numpy as np
import pytest

from repro.roadnet import (
    NoPathError, RoadNetwork, dijkstra, grid_city, is_connected_path,
    path_length, perturbed_route,
)


@pytest.fixture
def line_net():
    """0 -> 1 -> 2 -> 3 in a straight line, plus a slow shortcut 0 -> 3."""
    net = RoadNetwork()
    for i in range(4):
        net.add_vertex(i, i * 100.0, 0.0)
    net.add_vertex(4, 150.0, 200.0)
    net.add_edge(0, 1)
    net.add_edge(1, 2)
    net.add_edge(2, 3)
    net.add_edge(0, 4)   # detour via vertex 4
    net.add_edge(4, 3)
    return net


class TestDijkstra:
    def test_shortest_route(self, line_net):
        edges, cost = dijkstra(line_net, 0, 3)
        assert cost == pytest.approx(300.0)
        assert [line_net.edge(e).end for e in edges] == [1, 2, 3]

    def test_trivial_route(self, line_net):
        edges, cost = dijkstra(line_net, 0, 0)
        assert edges == []
        assert cost == 0.0

    def test_no_path_raises(self, line_net):
        with pytest.raises(NoPathError):
            dijkstra(line_net, 3, 0)

    def test_custom_cost_changes_route(self, line_net):
        # Make the middle edge prohibitively expensive.
        cost = line_net.arrays().length.copy()
        cost[line_net.edge_between(1, 2).edge_id] = 1e9
        edges, _ = dijkstra(line_net, 0, 3, edge_cost=cost)
        assert [line_net.edge(e).end for e in edges] == [4, 3]

    def test_inf_cost_bars_edge(self, line_net):
        cost = line_net.arrays().length.copy()
        cost[line_net.edge_between(0, 1).edge_id] = np.inf
        edges, total = dijkstra(line_net, 0, 3, edge_cost=cost)
        assert [line_net.edge(e).end for e in edges] == [4, 3]
        cost[line_net.edge_between(4, 3).edge_id] = np.inf
        with pytest.raises(NoPathError):
            dijkstra(line_net, 0, 3, edge_cost=cost)

    def test_negative_cost_rejected(self, line_net):
        # Rejected up front, even on an edge the search never explores.
        cost = line_net.arrays().length.copy()
        cost[line_net.edge_between(2, 3).edge_id] = -1.0
        with pytest.raises(ValueError, match="negative"):
            dijkstra(line_net, 0, 1, edge_cost=cost)

    def test_wrong_shape_cost_rejected(self, line_net):
        for cost in (np.ones(line_net.num_edges - 1),
                     np.ones((line_net.num_edges, 1)), 1.0):
            with pytest.raises(ValueError, match="shape"):
                dijkstra(line_net, 0, 3, edge_cost=cost)
        with pytest.raises(TypeError):
            dijkstra(line_net, 0, 3, edge_cost=lambda eid: 1.0)


class TestPerturbedRoute:
    def test_path_valid_and_length_true(self):
        net = grid_city(6, 6, seed=4)
        rng = np.random.default_rng(1)
        edges, length = perturbed_route(net, 0, net.num_vertices - 1, rng)
        assert is_connected_path(net, edges)
        assert length == pytest.approx(path_length(net, edges))

    def test_diverse_routes_for_same_od(self):
        """Example 1 of the paper: the same OD pair can take different
        trajectories; the perturbed router must produce route diversity."""
        net = grid_city(8, 8, seed=9)
        rng = np.random.default_rng(3)
        routes = {tuple(perturbed_route(net, 0, 62, rng, noise=0.5)[0])
                  for _ in range(20)}
        assert len(routes) > 1

    def test_zero_noise_equals_shortest(self):
        net = grid_city(6, 6, seed=4)
        rng = np.random.default_rng(1)
        edges, length = perturbed_route(net, 0, 30, rng, noise=0.0)
        _, best = dijkstra(net, 0, 30)
        assert length == pytest.approx(best)
