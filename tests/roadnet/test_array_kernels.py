"""Parity of the array-backed road-network kernels with their object-
walking oracles: per-edge arrays, the one shortest-path search behind
point-to-point routes, masked spur searches and SSSP rows, and the
cached-neighbourhood radius query."""

import numpy as np
import pytest

from repro.roadnet import RoadNetwork, SpatialIndex, grid_city
from repro.roadnet.shortest_path import (
    NoPathError, dijkstra, dijkstra_sssp, perturbed_route,
)

from tests.oracles import roadnet as oracle


def _random_net(seed, n=40, m=140, tie_lengths=(0.1, 0.2, 0.3, 1.0)):
    """Random digraph with few distinct edge lengths (so equal-cost
    paths abound) and a tail of vertices with no incoming edges (so
    rows hold unreachable entries)."""
    rng = np.random.default_rng(seed)
    net = RoadNetwork()
    for v in range(n):
        net.add_vertex(v, float(rng.uniform(0, 1000)),
                       float(rng.uniform(0, 1000)))
    sources_only = set(range(n - 4, n))
    while net.num_edges < m:
        a, b = (int(v) for v in rng.integers(n, size=2))
        if a == b or b in sources_only or net.edge_between(a, b):
            continue
        net.add_edge(a, b, length=float(rng.choice(tie_lengths)))
    return net


class TestEdgeArrays:
    def test_columns_match_edge_objects(self):
        net = grid_city(5, 5, seed=1)
        arr = net.arrays()
        for edge in net.edges():
            eid = edge.edge_id
            assert arr.length[eid] == edge.length
            assert (arr.start[eid], arr.end[eid]) == (edge.start, edge.end)
            a, b = net.edge_vector(eid)
            assert (arr.ax[eid], arr.ay[eid]) == (a[0], a[1])
            assert (arr.dx[eid], arr.dy[eid]) == (b[0] - a[0], b[1] - a[1])
        assert not arr.length.flags.writeable
        assert net.arrays() is arr

    def test_csr_lists_out_edges_in_insertion_order(self):
        net = grid_city(5, 5, seed=1)
        arr = net.arrays()
        for v in range(net.num_vertices):
            row = arr.out_edges[arr.out_indptr[v]:arr.out_indptr[v + 1]]
            assert row.tolist() == [e.edge_id for e in net.out_edges(v)]
        adjacency, lengths = net.out_adjacency()
        for v in range(net.num_vertices):
            assert adjacency[v] == [(e.end, e.edge_id)
                                    for e in net.out_edges(v)]
        assert lengths == [e.length for e in net.edges()]
        assert net.out_adjacency() is net.out_adjacency()

    def test_mutation_invalidates_cache(self):
        net = RoadNetwork()
        for v in range(3):
            net.add_vertex(v, 100.0 * v, 0.0)
        net.add_edge(0, 1)
        assert dijkstra_sssp(net, 0)[2] == np.inf
        net.add_edge(1, 2)
        assert net.arrays().length.shape == (2,)
        assert len(net.out_adjacency()[1]) == 2
        assert dijkstra_sssp(net, 0)[2] == 200.0
        assert dijkstra(net, 0, 2) == ([0, 1], 200.0)

    def test_sparse_vertex_ids_rejected(self):
        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(5, 10.0, 0.0)
        with pytest.raises(ValueError, match="dense"):
            net.arrays()


class TestSSSPParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_bitwise(self, seed):
        net = _random_net(seed)
        for source in range(net.num_vertices):
            fast = dijkstra_sssp(net, source)
            slow = oracle.dijkstra_sssp(net, source)
            assert fast.dtype == slow.dtype == np.float64
            assert fast.tobytes() == slow.tobytes()

    def test_unreachable_vertices_are_inf(self):
        net = _random_net(0)
        row = dijkstra_sssp(net, 0)
        assert np.isinf(row[-4:]).all()

    def test_city_rows_bitwise_and_agree_with_dijkstra(self):
        net = grid_city(8, 8, seed=3)
        for source in range(0, net.num_vertices, 7):
            row = dijkstra_sssp(net, source)
            assert row.tobytes() == oracle.dijkstra_sssp(net,
                                                         source).tobytes()
            for target in range(0, net.num_vertices, 11):
                assert dijkstra(net, source, target)[1] == row[target]


def _routes(route, net):
    """``route(source, target)`` for every vertex pair of ``net``, with
    :class:`NoPathError` recorded as ``None``."""
    out = {}
    for source in range(net.num_vertices):
        for target in range(net.num_vertices):
            try:
                out[source, target] = route(source, target)
            except NoPathError:
                out[source, target] = None
    return out


class TestDijkstraParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_pairs_default_lengths(self, seed):
        net = _random_net(seed)
        fast = _routes(lambda s, t: dijkstra(net, s, t), net)
        slow = _routes(lambda s, t: oracle.dijkstra(net, s, t), net)
        assert fast == slow
        # Sources-only vertices are unreachable; every vertex reaches
        # itself on the empty path.
        assert fast[0, net.num_vertices - 1] is None
        assert all(fast[v, v] == ([], 0.0) for v in range(net.num_vertices))

    @pytest.mark.parametrize("seed", range(6))
    def test_all_pairs_perturbed_costs(self, seed):
        net = _random_net(seed)
        rng = np.random.default_rng(100 + seed)
        cost = net.arrays().length * np.exp(
            rng.normal(0.0, 0.3, size=net.num_edges))
        fast = _routes(lambda s, t: dijkstra(net, s, t, edge_cost=cost),
                       net)
        slow = _routes(lambda s, t: oracle.dijkstra(
            net, s, t, edge_cost=lambda e: float(cost[e])), net)
        assert fast == slow
        for route in fast.values():
            if route is not None:
                assert all(type(e) is int for e in route[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_masked_costs_equal_excluding_search(self, seed):
        net = _random_net(seed)
        arr = net.arrays()
        rng = np.random.default_rng(200 + seed)
        length = lambda e: net.edge(e).length  # noqa: E731
        for _ in range(40):
            banned_edges = set(rng.choice(
                net.num_edges, size=int(rng.integers(0, 30)),
                replace=False).tolist())
            banned_vertices = set(rng.choice(
                net.num_vertices, size=int(rng.integers(0, 8)),
                replace=False).tolist())
            masked = arr.length.copy()
            masked[list(banned_edges)] = np.inf
            masked[np.isin(arr.end, list(banned_vertices))] = np.inf
            source, target = (int(v) for v in
                              rng.integers(net.num_vertices, size=2))
            try:
                fast = dijkstra(net, source, target, edge_cost=masked)
            except NoPathError:
                fast = None
            try:
                slow = oracle.dijkstra_excluding(
                    net, source, target, banned_edges, banned_vertices,
                    length)
            except NoPathError:
                slow = None
            assert fast == slow

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_route_equals_oracle(self, seed):
        net = grid_city(7, 7, seed=seed)
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(25):
            source, target = (int(v) for v in
                              ours.integers(net.num_vertices, size=2))
            theirs.integers(net.num_vertices, size=2)
            assert perturbed_route(net, source, target, ours, noise=0.5) \
                == oracle.perturbed_route(net, source, target, theirs,
                                          noise=0.5)


class TestRadiusQueryParity:
    @pytest.mark.parametrize("cell_size", [90.0, 250.0])
    def test_edges_within_matches_scan(self, cell_size):
        net = grid_city(6, 6, seed=0, jitter=0.0)
        index = SpatialIndex(net, cell_size=cell_size)
        rng = np.random.default_rng(4)
        min_x, min_y, max_x, max_y = net.bounding_box()
        points = [(float(rng.uniform(min_x - 300, max_x + 300)),
                   float(rng.uniform(min_y - 300, max_y + 300)))
                  for _ in range(60)]
        # Vertices and diagonal corner offsets: projections clip to a
        # shared end point, so several edges tie at the same distance.
        points += [(v.x, v.y) for v in net.vertices()]
        points += [(v.x - 7.0, v.y - 7.0) for v in net.vertices()]
        for radius in (0.0, 60.0, 180.0):
            for x, y in points:
                assert index.edges_within(x, y, radius) \
                    == oracle.edges_within(index, x, y, radius)

    def test_batch_equals_points(self):
        net = grid_city(6, 6, seed=2)
        index = SpatialIndex(net)
        xs = [float(v.x) + 13.0 for v in net.vertices()] + [-9000.0]
        ys = [float(v.y) - 4.0 for v in net.vertices()] + [-9000.0]
        counts, eids, dists, ratios = index.edges_within_many(xs, ys, 80.0)
        assert counts[-1] == 0
        at = 0
        for x, y, k in zip(xs, ys, counts.tolist()):
            hits = list(zip(eids[at:at + k].tolist(),
                            dists[at:at + k].tolist(),
                            ratios[at:at + k].tolist()))
            assert hits == oracle.edges_within(index, x, y, 80.0)
            at += k
        assert at == len(eids)

    def test_query_cell_clamps_far_points(self):
        index = SpatialIndex(grid_city(4, 4, seed=0))
        assert index._query_cell(-1e6, 1e6) == (0, index.rows - 1)
        assert index._query_cell(1e6, -1e6) == (index.cols - 1, 0)
