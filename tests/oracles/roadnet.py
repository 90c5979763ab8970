"""Object-walking road-network kernels: the oracles of the array-backed
shortest-path search and radius queries."""

import heapq

import numpy as np

from repro.roadnet.shortest_path import NoPathError


def dijkstra(net, source, target, edge_cost=None):
    """Point-to-point shortest path walking :class:`Edge` objects with
    a per-edge cost callback, dict distances and a visited set."""
    if edge_cost is None:
        edge_cost = lambda eid: net.edge(eid).length  # noqa: E731
    dist = {source: 0.0}
    prev_edge = {}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        if v == target:
            return _reconstruct(net, prev_edge, source, target), d
        for edge in net.out_edges(v):
            cost = edge_cost(edge.edge_id)
            if cost < 0:
                raise ValueError("negative edge cost")
            nd = d + cost
            if nd < dist.get(edge.end, np.inf):
                dist[edge.end] = nd
                prev_edge[edge.end] = edge.edge_id
                heapq.heappush(heap, (nd, edge.end))
    raise NoPathError(f"no path from {source} to {target}")


def dijkstra_excluding(net, source, target, banned_edges, banned_vertices,
                       edge_cost):
    """Yen's spur search: :func:`dijkstra` skipping banned edges and
    every edge into a banned vertex."""
    dist = {source: 0.0}
    prev = {}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        if v == target:
            path = []
            node = target
            while node != source:
                eid = prev[node]
                path.append(eid)
                node = net.edge(eid).start
            path.reverse()
            return path, d
        for edge in net.out_edges(v):
            if edge.edge_id in banned_edges or edge.end in banned_vertices:
                continue
            nd = d + edge_cost(edge.edge_id)
            if nd < dist.get(edge.end, np.inf):
                dist[edge.end] = nd
                prev[edge.end] = edge.edge_id
                heapq.heappush(heap, (nd, edge.end))
    raise NoPathError(f"no path from {source} to {target}")


def perturbed_route(net, source, target, rng, noise=0.3):
    """Perturbed-length route through a per-edge cost callback."""
    factors = np.exp(rng.normal(0.0, noise, size=net.num_edges))

    def cost(eid):
        return net.edge(eid).length * float(factors[eid])

    edges, _ = dijkstra(net, source, target, edge_cost=cost)
    return edges, sum(net.edge(e).length for e in edges)


def _reconstruct(net, prev_edge, source, target):
    path = []
    v = target
    while v != source:
        eid = prev_edge[v]
        path.append(eid)
        v = net.edge(eid).start
    path.reverse()
    return path


def dijkstra_sssp(net, source):
    """Single-source edge-length distances walking :class:`Edge`
    objects with a per-edge cost callback."""
    edge_cost = lambda eid: net.edge(eid).length  # noqa: E731
    dist = np.full(net.num_vertices, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    visited = np.zeros(net.num_vertices, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        for edge in net.out_edges(v):
            nd = d + edge_cost(edge.edge_id)
            if nd < dist[edge.end]:
                dist[edge.end] = nd
                heapq.heappush(heap, (nd, edge.end))
    return dist


def edges_within(index, x, y, radius):
    """Radius query scanning the ring cells with a Python ``seen`` set
    and projecting edge by edge with ``RoadNetwork.project_point``."""
    cx, cy = index._query_cell(x, y)
    rings = int(np.ceil(radius / index.cell_size)) + 1
    seen = set()
    results = []
    for ring in range(rings + 1):
        for cell in index._ring_cells(cx, cy, ring):
            for eid in index._cells.get(cell, ()):
                if eid in seen:
                    continue
                seen.add(eid)
                dist, ratio = index.net.project_point(eid, x, y)
                if dist <= radius:
                    results.append((eid, dist, ratio))
    results.sort(key=lambda t: t[1])
    return results
