"""Yen's k-shortest loopless paths.

Route-diversity analysis for the simulator and the Example 1 scenario
(the same OD pair served by several sensible routes).  Standard Yen's
algorithm on top of :func:`dijkstra`: each spur search runs over a copy
of the edge lengths with ``inf`` on the banned edges and on every edge
into a banned vertex, which the search never relaxes.
"""

from __future__ import annotations

import heapq
from typing import List, Set, Tuple

import numpy as np

from .graph import RoadNetwork
from .shortest_path import NoPathError, dijkstra


def k_shortest_paths(net: RoadNetwork, source: int, target: int, k: int
                     ) -> List[Tuple[List[int], float]]:
    """Up to ``k`` loopless shortest paths by edge length, ascending by
    cost (Yen 1971)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    arrays = net.arrays()
    first = dijkstra(net, source, target)
    paths: List[Tuple[List[int], float]] = [first]
    candidates: List[Tuple[float, List[int]]] = []
    seen = {tuple(first[0])}

    while len(paths) < k:
        prev_path = paths[-1][0]
        for i in range(len(prev_path)):
            # Spur node: start vertex of edge i of the previous path.
            spur_node = net.edge(prev_path[i]).start
            root = prev_path[:i]
            root_cost = sum(net.edge(e).length for e in root)
            banned_edges: Set[int] = set()
            for path, _ in paths:
                if path[:i] == root and len(path) > i:
                    banned_edges.add(path[i])
            # Ban root vertices to keep paths loopless.
            banned_vertices = [net.edge(e).start for e in root]
            masked = arrays.length.copy()
            masked[list(banned_edges)] = np.inf
            masked[np.isin(arrays.end, banned_vertices)] = np.inf
            try:
                spur, spur_cost = dijkstra(net, spur_node, target,
                                           edge_cost=masked)
            except NoPathError:
                continue
            total = root + spur
            key = tuple(total)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(candidates, (root_cost + spur_cost, total))
        if not candidates:
            break
        cost, path = heapq.heappop(candidates)
        paths.append((path, cost))
    return paths


def route_diversity(net: RoadNetwork, source: int, target: int,
                    k: int = 3) -> float:
    """Mean pairwise Jaccard distance between the k shortest routes.

    0 means all routes identical; values near 1 mean disjoint
    alternatives — the regime where the paper's Example 1 matters most.
    """
    paths = k_shortest_paths(net, source, target, k)
    if len(paths) < 2:
        return 0.0
    sets = [set(p) for p, _ in paths]
    distances = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            union = sets[i] | sets[j]
            inter = sets[i] & sets[j]
            distances.append(1.0 - len(inter) / len(union))
    return float(np.mean(distances))
