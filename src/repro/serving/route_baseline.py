"""Shortest-path × live-speed baseline: the middle serving tier.

The first rung of the baseline ladder (ROADMAP item 5), shaped after
taxisim's ``predict_trip_duration``: route the OD pair over the road
network with per-edge costs ``length / cell_speed``, where the cell
speed comes from the speed-matrix slice in force at the departure time.
With a :class:`~repro.datagen.speed_matrix.LiveSpeedStore` behind it the
estimate tracks *live* traffic, which makes it a far better degraded
answer than the time-bucketed historical average (TEMP): the serving
fallback chain is model (tier 0) → route baseline (tier 1) → TEMP
(tier 2).

No learning happens here — the whole tier is one Dijkstra per query
over cached per-edge cell indices, so it stays available whenever the
model path is down.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..datagen.speed_matrix import edge_cell_indices
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import dijkstra
from ..trajectory.model import ODInput

# A floor on per-cell speeds (m/s): a cell observed only while gridlocked
# must still yield finite edge costs.
MIN_CELL_SPEED = 0.5


class RouteTimeBaseline:
    """Travel-time estimates from shortest paths under current speeds.

    Parameters
    ----------
    net:
        The road network shared with the rest of the serving stack.
    store_provider:
        Zero-argument callable returning the speed store to read slices
        from.  A callable (not a bound store) so the serving layer can
        swap in a live store mid-flight without rebuilding the baseline.
    """

    def __init__(self, net: RoadNetwork, store_provider: Callable,
                 min_cell_speed: float = MIN_CELL_SPEED):
        if min_cell_speed <= 0:
            raise ValueError("min_cell_speed must be positive")
        self.net = net
        self._store = store_provider
        self.min_cell_speed = min_cell_speed
        store = store_provider()
        self._rows, self._cols = edge_cell_indices(net, store)
        self._lengths = net.arrays().length

    # ------------------------------------------------------------------
    def _edge_seconds(self, t: float) -> np.ndarray:
        """Per-edge traversal seconds under the slice in force at ``t``."""
        matrix = self._store().matrix_before(t)
        speeds = np.maximum(matrix[self._rows, self._cols],
                            self.min_cell_speed)
        return self._lengths / speeds

    def estimate_od(self, od: ODInput,
                    edge_seconds: Optional[np.ndarray] = None) -> float:
        """Seconds for one matched OD input (raises on unroutable pairs,
        letting the caller fall through to the next tier)."""
        if not od.is_matched:
            raise ValueError("route baseline needs matched edge ids")
        costs = (self._edge_seconds(od.depart_time)
                 if edge_seconds is None else edge_seconds)
        o_edge, d_edge = od.origin_edge, od.destination_edge
        # Origin and destination snap to edges independently: on one
        # edge the short form holds only driving forwards (the matcher's
        # transition rule); a destination behind the origin needs the
        # way round, like two different edges.
        if o_edge == d_edge and od.ratio_end >= od.ratio_start:
            span = od.ratio_end - od.ratio_start
            return float(max(span * costs[o_edge], 1e-3))
        o, d = self.net.edge(o_edge), self.net.edge(d_edge)
        seconds = (1.0 - od.ratio_start) * costs[o_edge]
        if o.end != d.start:
            _, path_seconds = dijkstra(self.net, o.end, d.start,
                                       edge_cost=costs)
            seconds += path_seconds
        seconds += od.ratio_end * costs[d_edge]
        return float(max(seconds, 1e-3))

    def estimate_from_ods(self, ods: Sequence[ODInput]) -> np.ndarray:
        """Vector of seconds for a batch; the per-period edge-cost table
        is shared across queries departing in the same slice."""
        if not len(ods):
            return np.array([])
        store = self._store()
        by_period = {}
        out = np.empty(len(ods))
        for i, od in enumerate(ods):
            period = store.period_before(od.depart_time)
            if period not in by_period:
                by_period[period] = self._edge_seconds(od.depart_time)
            out[i] = self.estimate_od(od, edge_seconds=by_period[period])
        return out
