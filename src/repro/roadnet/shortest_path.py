"""Shortest-path routing over road networks.

Used by the trip simulator (route choice), the map matcher (transition
probabilities need network distances between candidate edges, and gaps
between matched edges are filled with point-to-point paths), the serving
route tier (shortest path under live per-edge seconds) and Yen's k
shortest paths.  All of them run on one heap search, :func:`_search`,
over :meth:`RoadNetwork.out_adjacency` with a per-edge cost list:
:func:`dijkstra` wraps it as a point-to-point route and
:func:`dijkstra_sssp` as a full distance row.  Costs are arrays indexed
by edge id, never callbacks; :func:`perturbed_route` draws one
log-normal factor per edge so two trips over the same OD pair can take
different routes (the phenomenon motivating the paper's Example 1).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import RoadNetwork


class NoPathError(Exception):
    """Raised when no route exists between the requested vertices."""


def _search(net: RoadNetwork, source: int, target: int,
            cost: Sequence[float]) -> Tuple[List[float], List[int]]:
    """Dijkstra from ``source`` over per-edge ``cost`` (indexed by edge
    id), stopping once ``target`` settles; ``target=-1`` settles every
    reachable vertex.

    Returns the distance list (``inf`` where unreached) and the
    predecessor edge of each reached vertex (``-1`` elsewhere).  Ties
    resolve by ``(distance, vertex)`` heap order and strict ``<``
    relaxation: the first vertex settled keeps an equal-cost head, so
    tied paths are deterministic.  Vertex ids must be dense
    ``0..|V|-1``.
    """
    adjacency, _ = net.out_adjacency()
    dist = [np.inf] * net.num_vertices
    prev = [-1] * net.num_vertices
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, v = pop(heap)
        # Pushes strictly lower dist[w], so the one live entry of a
        # vertex is the one equal to its distance: skipping the others
        # is the usual visited check.
        if d > dist[v]:
            continue
        if v == target:
            break
        for w, eid in adjacency[v]:
            nd = d + cost[eid]
            if nd < dist[w]:
                dist[w] = nd
                prev[w] = eid
                push(heap, (nd, w))
    return dist, prev


def dijkstra(net: RoadNetwork, source: int, target: int,
             edge_cost: Optional[np.ndarray] = None
             ) -> Tuple[List[int], float]:
    """Shortest path from ``source`` to ``target`` vertex.

    Parameters
    ----------
    edge_cost:
        Non-negative ``(num_edges,)`` float array of per-edge costs;
        defaults to edge length.  An ``inf`` entry bars its edge.

    Returns
    -------
    (edge_ids, total_cost)
    """
    if edge_cost is None:
        _, cost = net.out_adjacency()
    else:
        edge_cost = np.asarray(edge_cost, dtype=np.float64)
        if edge_cost.shape != (net.num_edges,):
            raise ValueError(f"edge_cost must have shape ({net.num_edges},),"
                             f" got {edge_cost.shape}")
        if not (edge_cost >= 0).all():
            raise ValueError("negative edge cost")
        cost = edge_cost.tolist()
    dist, prev = _search(net, source, target, cost)
    if dist[target] == np.inf:
        raise NoPathError(f"no path from {source} to {target}")
    start = net.arrays().start
    path: List[int] = []
    v = target
    while v != source:
        eid = prev[v]
        path.append(eid)
        v = start[eid]
    path.reverse()
    return path, dist[target]


def dijkstra_sssp(net: RoadNetwork, source: int) -> np.ndarray:
    """Single-source edge-length distances to *every* vertex.

    Returns a ``(num_vertices,)`` float array with ``np.inf`` for
    unreachable vertices.  Distances agree exactly with point-to-point
    :func:`dijkstra` (the same search, without the early exit), which
    is what lets the vectorised map matcher cache one row per source
    vertex instead of one entry per vertex pair.
    """
    _, lengths = net.out_adjacency()
    dist, _ = _search(net, source, -1, lengths)
    return np.array(dist)


def perturbed_route(net: RoadNetwork, source: int, target: int,
                    rng: np.random.Generator,
                    noise: float = 0.3) -> Tuple[List[int], float]:
    """Route under multiplicatively perturbed edge lengths.

    Samples one log-normal factor per edge and runs Dijkstra, modelling
    driver route choice diversity: repeated calls with different rng states
    return different (but sensible) routes for the same OD pair.
    """
    factors = np.exp(rng.normal(0.0, noise, size=net.num_edges))
    edges, _ = dijkstra(net, source, target,
                        edge_cost=net.arrays().length * factors)
    true_length = sum(net.edge(e).length for e in edges)
    return edges, true_length


def path_length(net: RoadNetwork, edge_ids: List[int]) -> float:
    return sum(net.edge(eid).length for eid in edge_ids)


def is_connected_path(net: RoadNetwork, edge_ids: List[int]) -> bool:
    """True when consecutive edges share endpoints (a valid walk)."""
    for prev, nxt in zip(edge_ids, edge_ids[1:]):
        if net.edge(prev).end != net.edge(nxt).start:
            return False
    return True
