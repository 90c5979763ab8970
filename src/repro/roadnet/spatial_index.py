"""Uniform-grid spatial index over road-network edges.

Supports the two geometric queries the system needs:

* nearest-edge / k-nearest-edge search — used when matching the OD input's
  GPS points onto road segments (Section 3: "for g[1] and g[-1] that are two
  end points matched on road segments"), and for map-matching candidate
  generation;
* radius search — used by the HMM matcher to enumerate candidate segments
  within a GPS error radius, one point at a time or a whole trajectory in
  one numpy pass.

Edges are binned into every grid cell their bounding box overlaps; queries
expand rings of cells outward until a hit is guaranteed correct.  Radius
queries cache each ``(cell, rings)`` neighbourhood as an edge-id array and
project it against the network's per-edge arrays.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graph import RoadNetwork


class SpatialIndex:
    """Grid index over the edges of a :class:`RoadNetwork`."""

    def __init__(self, net: RoadNetwork, cell_size: float = 250.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.net = net
        self.cell_size = float(cell_size)
        min_x, min_y, max_x, max_y = net.bounding_box()
        # Pad so boundary points hash into valid cells.
        self.min_x = min_x - cell_size
        self.min_y = min_y - cell_size
        self.cols = int(np.ceil((max_x - self.min_x) / cell_size)) + 2
        self.rows = int(np.ceil((max_y - self.min_y) / cell_size)) + 2
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for edge in net.edges():
            for cell in self._edge_cells(edge.edge_id):
                self._cells[cell].append(edge.edge_id)
        # (cx, cy, rings) -> deduplicated edge ids of the cells within
        # ``rings`` of (cx, cy), in ring order; filled by radius queries.
        self._neighbourhoods: Dict[Tuple[int, int, int], np.ndarray] = {}

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (int((x - self.min_x) // self.cell_size),
                int((y - self.min_y) // self.cell_size))

    def _query_cell(self, x: float, y: float) -> Tuple[int, int]:
        """Cell to start a search from; clamped so far-away query points
        still walk outward over the populated grid."""
        cx, cy = self._cell_of(x, y)
        return (min(max(cx, 0), self.cols - 1),
                min(max(cy, 0), self.rows - 1))

    def _edge_cells(self, edge_id: int) -> List[Tuple[int, int]]:
        a, b = self.net.edge_vector(edge_id)
        cx0, cy0 = self._cell_of(min(a[0], b[0]), min(a[1], b[1]))
        cx1, cy1 = self._cell_of(max(a[0], b[0]), max(a[1], b[1]))
        return [(cx, cy)
                for cx in range(cx0, cx1 + 1)
                for cy in range(cy0, cy1 + 1)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nearest_edge(self, x: float, y: float) -> Tuple[int, float, float]:
        """Closest edge to (x, y).

        Returns (edge_id, distance, ratio) where ``ratio`` is the projection
        position along the edge (Definition 1's position ratio).
        """
        hits = self.k_nearest_edges(x, y, k=1)
        if not hits:
            raise ValueError("spatial index is empty")
        return hits[0]

    def k_nearest_edges(self, x: float, y: float, k: int = 5
                        ) -> List[Tuple[int, float, float]]:
        """k closest edges, sorted by distance."""
        if k < 1:
            raise ValueError("k must be >= 1")
        cx, cy = self._query_cell(x, y)
        best: List[Tuple[float, int, float]] = []
        seen: set[int] = set()
        max_radius = max(self.rows, self.cols)
        for ring in range(max_radius + 1):
            for cell in self._ring_cells(cx, cy, ring):
                for eid in self._cells.get(cell, ()):
                    if eid in seen:
                        continue
                    seen.add(eid)
                    dist, ratio = self.net.project_point(eid, x, y)
                    best.append((dist, eid, ratio))
            if len(best) >= k:
                best.sort()
                # Correctness guard: a candidate at distance d is only
                # final once the searched ring covers radius d.
                kth = best[min(k, len(best)) - 1][0]
                if kth <= (ring) * self.cell_size:
                    break
        best.sort()
        return [(eid, dist, ratio) for dist, eid, ratio in best[:k]]

    def project_batch(self, edge_ids: np.ndarray, x, y
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`RoadNetwork.project_point` over many edges.

        ``x`` and ``y`` are one point or arrays aligned with
        ``edge_ids``.  Returns (distances, ratios) arrays aligned with
        ``edge_ids``, bit-identical to per-edge scalar projection (same
        expression order; two-term dots expand to the same
        ``x*x + y*y``).
        """
        arr = self.net.arrays()
        e = np.asarray(edge_ids, dtype=np.int64)
        eax, eay, edx, edy = arr.ax[e], arr.ay[e], arr.dx[e], arr.dy[e]
        t = np.clip(((x - eax) * edx + (y - eay) * edy) / arr.seg_len_sq[e],
                    0.0, 1.0)
        dist = np.hypot(x - (eax + t * edx), y - (eay + t * edy))
        return dist, t

    def edges_within(self, x: float, y: float, radius: float
                     ) -> List[Tuple[int, float, float]]:
        """All edges whose distance to (x, y) is at most ``radius``,
        nearest first (ties keep ring order)."""
        _, eids, dists, ratios = self.edges_within_many([x], [y], radius)
        return list(zip(eids.tolist(), dists.tolist(), ratios.tolist()))

    def edges_within_many(self, xs: Sequence[float], ys: Sequence[float],
                          radius: float
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """:meth:`edges_within` for many points in one numpy pass.

        Returns ``(counts, edge_ids, distances, ratios)``: point ``i``'s
        hits are ``counts[i]`` consecutive entries, following those of
        the points before it, in :meth:`edges_within` order.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        rings = math.ceil(radius / self.cell_size) + 1
        hoods = [self._neighbourhood(*self._query_cell(x, y), rings)
                 for x, y in zip(xs, ys)]
        sizes = [len(hood) for hood in hoods]
        owner = np.repeat(np.arange(len(hoods)), sizes)
        eids = (np.concatenate(hoods) if hoods
                else np.empty(0, dtype=np.int64))
        dists, ratios = self.project_batch(
            eids, np.asarray(xs, dtype=np.float64)[owner],
            np.asarray(ys, dtype=np.float64)[owner])
        keep = np.flatnonzero(dists <= radius)
        # Owner first, then distance; lexsort is stable, so equal
        # distances keep ring order.
        keep = keep[np.lexsort((dists[keep], owner[keep]))]
        counts = np.bincount(owner[keep], minlength=len(hoods))
        return counts, eids[keep], dists[keep], ratios[keep]

    def _neighbourhood(self, cx: int, cy: int, rings: int) -> np.ndarray:
        key = (cx, cy, rings)
        eids = self._neighbourhoods.get(key)
        if eids is None:
            ordered = dict.fromkeys(
                eid for ring in range(rings + 1)
                for cell in self._ring_cells(cx, cy, ring)
                for eid in self._cells.get(cell, ()))
            eids = np.fromiter(ordered, dtype=np.int64, count=len(ordered))
            self._neighbourhoods[key] = eids
        return eids

    def _ring_cells(self, cx: int, cy: int, ring: int
                    ) -> List[Tuple[int, int]]:
        if ring == 0:
            return [(cx, cy)]
        cells = []
        for dx in range(-ring, ring + 1):
            cells.append((cx + dx, cy - ring))
            cells.append((cx + dx, cy + ring))
        for dy in range(-ring + 1, ring):
            cells.append((cx - ring, cy + dy))
            cells.append((cx + ring, cy + dy))
        return cells
