"""Road-network substrate: graphs, generators, routing, spatial indexing
and the line-graph conversion of paper Figure 4."""

from .graph import Edge, RoadNetwork, Vertex
from .generators import grid_city
from .shortest_path import (
    NoPathError, dijkstra, is_connected_path, path_length, perturbed_route,
)
from .spatial_index import SpatialIndex
from .linegraph import (
    CSRAdjacency, WeightedDigraph, build_line_graph,
    temporal_graph_to_digraph,
)
from .ksp import k_shortest_paths, route_diversity

__all__ = [
    "Edge", "RoadNetwork", "Vertex",
    "grid_city",
    "NoPathError", "dijkstra", "is_connected_path", "path_length",
    "perturbed_route",
    "SpatialIndex",
    "CSRAdjacency", "WeightedDigraph", "build_line_graph",
    "temporal_graph_to_digraph",
    "k_shortest_paths", "route_diversity",
]
