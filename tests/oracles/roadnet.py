"""Object-walking road-network kernels: the oracles of the array-backed
shortest-path rows and radius queries."""

import heapq

import numpy as np


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
