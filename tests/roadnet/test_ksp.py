"""Tests for Yen's k-shortest paths and route diversity."""

import numpy as np
import pytest

from repro.roadnet import (
    RoadNetwork, dijkstra, grid_city, is_connected_path, k_shortest_paths,
    path_length, route_diversity,
)


@pytest.fixture(scope="module")
def city():
    return grid_city(6, 6, seed=1, oneway_fraction=0.0,
                     removal_fraction=0.0)


class TestKShortestPaths:
    def test_first_path_is_shortest(self, city):
        paths = k_shortest_paths(city, 0, 35, k=3)
        _, best = dijkstra(city, 0, 35)
        assert paths[0][1] == pytest.approx(best)

    def test_costs_ascending(self, city):
        paths = k_shortest_paths(city, 0, 35, k=5)
        costs = [c for _, c in paths]
        assert costs == sorted(costs)

    def test_paths_distinct_and_valid(self, city):
        paths = k_shortest_paths(city, 0, 35, k=5)
        keys = {tuple(p) for p, _ in paths}
        assert len(keys) == len(paths)
        for path, cost in paths:
            assert is_connected_path(city, path)
            assert city.edge(path[0]).start == 0
            assert city.edge(path[-1]).end == 35
            assert cost == pytest.approx(path_length(city, path))

    def test_loopless(self, city):
        for path, _ in k_shortest_paths(city, 0, 35, k=5):
            vertices = [city.edge(path[0]).start]
            vertices += [city.edge(e).end for e in path]
            assert len(vertices) == len(set(vertices))

    def test_spur_paths_never_revisit_the_root(self):
        """From spur vertex 1 the only way on runs back through root
        vertex 0 (1 -> 2 -> 0 -> 4 -> 3): a loop, so Yen must drop it."""
        net = RoadNetwork()
        for v in range(5):
            net.add_vertex(v, 100.0 * v, 0.0)
        for a, b, length in [(0, 1, 1.0), (1, 3, 1.0), (1, 2, 1.0),
                             (2, 0, 1.0), (0, 4, 1.0), (4, 3, 1.5)]:
            net.add_edge(a, b, length=length)
        paths = k_shortest_paths(net, 0, 3, k=3)
        assert [(cost, [net.edge(e).end for e in path])
                for path, cost in paths] == [(2.0, [1, 3]), (2.5, [4, 3])]

    def test_k_one(self, city):
        paths = k_shortest_paths(city, 0, 7, k=1)
        assert len(paths) == 1

    def test_invalid_k(self, city):
        with pytest.raises(ValueError):
            k_shortest_paths(city, 0, 7, k=0)

    def test_fewer_than_k_when_exhausted(self):
        """A line graph has exactly one loopless route."""
        net = RoadNetwork()
        for i in range(3):
            net.add_vertex(i, i * 100.0, 0.0)
        net.add_edge(0, 1)
        net.add_edge(1, 2)
        paths = k_shortest_paths(net, 0, 2, k=5)
        assert len(paths) == 1


class TestRouteDiversity:
    def test_grid_has_diversity(self, city):
        assert route_diversity(city, 0, 35, k=3) > 0.0

    def test_line_has_none(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_vertex(i, i * 100.0, 0.0)
        for i in range(3):
            net.add_edge(i, i + 1)
        assert route_diversity(net, 0, 3, k=3) == 0.0

    def test_bounded(self, city):
        d = route_diversity(city, 0, 30, k=4)
        assert 0.0 <= d <= 1.0
