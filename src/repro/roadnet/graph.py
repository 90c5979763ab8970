"""Road network model (paper Section 2).

A road network is a directed, weighted graph ``G = <V, E>``: each edge is a
road segment ``e_k = <v1_k -> v-1_k, w_k>`` with a length weight, each vertex
an end point.  :class:`RoadNetwork` stores vertices with planar coordinates
(metres, a local projection of lon/lat) and provides the adjacency views the
rest of the system needs: outgoing/incoming edges, edge lookup by endpoint
pair, and geometric helpers (edge length, point projection).  Hot loops
(shortest-path rows, candidate projection, Viterbi lattices) read the
cached per-edge arrays and CSR out-adjacency of :meth:`RoadNetwork.arrays`
instead of walking :class:`Edge` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Vertex:
    """A road-segment end point with planar coordinates in metres."""

    vertex_id: int
    x: float
    y: float

    @property
    def xy(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Edge:
    """A directed road segment ``<v1, v-1>`` with a length weight in metres.

    ``speed_limit`` (m/s) carries the free-flow speed used by the traffic
    simulator; ``road_class`` distinguishes arterials from side streets.
    """

    edge_id: int
    start: int
    end: int
    length: float
    speed_limit: float = 13.9        # ~50 km/h default
    road_class: str = "street"

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"edge {self.edge_id} has non-positive length")
        if self.speed_limit <= 0:
            raise ValueError(f"edge {self.edge_id} has non-positive speed")


@dataclass(frozen=True)
class EdgeArrays:
    """Per-edge columns and the CSR out-adjacency of a network.

    Edge columns are indexed by edge id.  ``ax, ay`` are the start
    vertex coordinates and ``dx, dy`` the segment vector, computed with
    the same expressions as :meth:`RoadNetwork.project_point` so array
    projections stay bit-identical to the scalar one.  The out-adjacency
    lists vertex ``v``'s outgoing edge ids at
    ``out_edges[out_indptr[v]:out_indptr[v + 1]]`` in insertion order.
    """

    length: np.ndarray
    start: np.ndarray
    end: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    seg_len_sq: np.ndarray
    out_indptr: np.ndarray
    out_edges: np.ndarray


class RoadNetwork:
    """Directed weighted road graph with geometry.

    Vertices and edges are stored in insertion order; ``edge_id`` values are
    dense ``0..|E|-1`` so they double as indices into embedding matrices
    (Eq. 1 identifies each road segment by a unique id).
    """

    def __init__(self) -> None:
        self._vertices: Dict[int, Vertex] = {}
        self._edges: List[Edge] = []
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        self._by_endpoints: Dict[Tuple[int, int], int] = {}
        self._arrays: Optional[EdgeArrays] = None
        self._adjacency: Optional[Tuple[List[List[Tuple[int, int]]],
                                        List[float]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id: int, x: float, y: float) -> Vertex:
        if vertex_id in self._vertices:
            raise ValueError(f"duplicate vertex id {vertex_id}")
        vertex = Vertex(vertex_id, float(x), float(y))
        self._invalidate()
        self._vertices[vertex_id] = vertex
        self._out.setdefault(vertex_id, [])
        self._in.setdefault(vertex_id, [])
        return vertex

    def add_edge(self, start: int, end: int, length: Optional[float] = None,
                 speed_limit: float = 13.9,
                 road_class: str = "street") -> Edge:
        if start not in self._vertices or end not in self._vertices:
            raise KeyError(f"unknown endpoint in edge <{start}, {end}>")
        if (start, end) in self._by_endpoints:
            raise ValueError(f"duplicate edge <{start}, {end}>")
        if start == end:
            raise ValueError("self-loop road segments are not supported")
        if length is None:
            length = self.euclidean(start, end)
        edge = Edge(len(self._edges), start, end, float(length),
                    float(speed_limit), road_class)
        self._invalidate()
        self._edges.append(edge)
        self._out[start].append(edge.edge_id)
        self._in[end].append(edge.edge_id)
        self._by_endpoints[(start, end)] = edge.edge_id
        return edge

    def _invalidate(self) -> None:
        self._arrays = None
        self._adjacency = None

    # ------------------------------------------------------------------
    # Array views (cached; rebuilt after any mutation)
    # ------------------------------------------------------------------
    def arrays(self) -> EdgeArrays:
        """Per-edge columns and CSR out-adjacency (see :class:`EdgeArrays`).

        The CSR rows are indexed by vertex id, so vertex ids must be
        dense ``0..|V|-1`` (as every generator produces).
        """
        if self._arrays is None:
            n = self.num_vertices
            if any(vid >= n or vid < 0 for vid in self._vertices):
                raise ValueError("array views need dense vertex ids "
                                 "0..|V|-1")
            edges = self._edges
            length = np.array([e.length for e in edges], dtype=np.float64)
            start = np.array([e.start for e in edges], dtype=np.int64)
            end = np.array([e.end for e in edges], dtype=np.int64)
            vx = np.array([self._vertices[v].x for v in range(n)])
            vy = np.array([self._vertices[v].y for v in range(n)])
            ax, ay = vx[start], vy[start]
            dx, dy = vx[end] - ax, vy[end] - ay
            degree = np.array([len(self._out[v]) for v in range(n)],
                              dtype=np.int64)
            out_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degree, out=out_indptr[1:])
            out_edges = np.array(
                [eid for v in range(n) for eid in self._out[v]],
                dtype=np.int64)
            arrays = EdgeArrays(
                length=length, start=start, end=end, ax=ax, ay=ay,
                dx=dx, dy=dy, seg_len_sq=dx * dx + dy * dy,
                out_indptr=out_indptr, out_edges=out_edges)
            # Shared by every caller until the next mutation.
            for column in vars(arrays).values():
                column.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def out_adjacency(self) -> Tuple[List[List[Tuple[int, int]]],
                                     List[float]]:
        """``(head vertex, edge id)`` pairs per vertex, in the CSR's
        (insertion) order, and the edge lengths indexed by edge id: the
        plain-Python form the shortest-path kernel loops over, free of
        :class:`Edge` lookups."""
        if self._adjacency is None:
            arr = self.arrays()
            heads = arr.end[arr.out_edges].tolist()
            eids = arr.out_edges.tolist()
            ptr = arr.out_indptr.tolist()
            rows = [list(zip(heads[ptr[v]:ptr[v + 1]],
                             eids[ptr[v]:ptr[v + 1]]))
                    for v in range(self.num_vertices)]
            self._adjacency = (rows, arr.length.tolist())
        return self._adjacency

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex(self, vertex_id: int) -> Vertex:
        return self._vertices[vertex_id]

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def edge(self, edge_id: int) -> Edge:
        return self._edges[edge_id]

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def edge_between(self, start: int, end: int) -> Optional[Edge]:
        edge_id = self._by_endpoints.get((start, end))
        return None if edge_id is None else self._edges[edge_id]

    def out_edges(self, vertex_id: int) -> List[Edge]:
        return [self._edges[eid] for eid in self._out[vertex_id]]

    def in_edges(self, vertex_id: int) -> List[Edge]:
        return [self._edges[eid] for eid in self._in[vertex_id]]

    def successors(self, edge_id: int) -> List[Edge]:
        """Edges that can directly follow ``edge_id`` on a path."""
        return self.out_edges(self._edges[edge_id].end)

    def euclidean(self, v1: int, v2: int) -> float:
        a, b = self._vertices[v1], self._vertices[v2]
        return float(np.hypot(a.x - b.x, a.y - b.y))

    def edge_vector(self, edge_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Start and end coordinates of an edge as arrays."""
        edge = self._edges[edge_id]
        a, b = self._vertices[edge.start], self._vertices[edge.end]
        return np.array(a.xy), np.array(b.xy)

    def point_at_ratio(self, edge_id: int, ratio: float) -> Tuple[float, float]:
        """Coordinates of the point a fraction ``ratio`` along an edge."""
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        a, b = self.edge_vector(edge_id)
        point = a + ratio * (b - a)
        return (float(point[0]), float(point[1]))

    def project_point(self, edge_id: int, x: float, y: float
                      ) -> Tuple[float, float]:
        """Project (x, y) onto an edge; returns (distance, ratio).

        ``ratio`` is the normalised position of the closest point along the
        segment — exactly the r[1] / r[-1] ratios of Definition 1.
        """
        edge = self._edges[edge_id]
        va = self._vertices[edge.start]
        vb = self._vertices[edge.end]
        dx, dy = vb.x - va.x, vb.y - va.y
        # Expanded scalar arithmetic (no 2-vector dots): keeps this
        # allocation-free and bit-identical to the vectorised
        # ``SpatialIndex.project_batch``, whose expressions mirror these.
        seg_len_sq = dx * dx + dy * dy
        t = ((x - va.x) * dx + (y - va.y) * dy) / seg_len_sq
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        return (float(np.hypot(x - (va.x + t * dx), y - (va.y + t * dy))),
                float(t))

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) over all vertices."""
        xs = [v.x for v in self._vertices.values()]
        ys = [v.y for v in self._vertices.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def total_length(self) -> float:
        return sum(e.length for e in self._edges)

    def __repr__(self) -> str:
        return (f"RoadNetwork(|V|={self.num_vertices}, "
                f"|E|={self.num_edges})")
