"""Unit tests for the shortest-path × live-speed route tier."""

import numpy as np
import pytest

from repro.datagen.speed_matrix import SpeedGridConfig, SpeedMatrixStore
from repro.roadnet import RoadNetwork
from repro.serving import RouteTimeBaseline
from repro.trajectory.model import ODInput


@pytest.fixture
def loop():
    """One-way square 0 -> 1 -> 2 -> 3 -> 0 of 100 m sides under one
    10 m/s speed cell: every edge takes 10 s."""
    net = RoadNetwork()
    for v, (x, y) in enumerate([(0, 0), (100, 0), (100, 100), (0, 100)]):
        net.add_vertex(v, x, y)
    for v in range(4):
        net.add_edge(v, (v + 1) % 4)
    store = SpeedMatrixStore.from_arrays(
        np.full((1, 1, 1), 10.0), 0.0, 0.0, SpeedGridConfig(cell_metres=1e3))
    return RouteTimeBaseline(net, lambda: store)


def _od(o_edge, ratio_start, d_edge, ratio_end):
    return ODInput((0.0, 0.0), (0.0, 0.0), 600.0, origin_edge=o_edge,
                   destination_edge=d_edge, ratio_start=ratio_start,
                   ratio_end=ratio_end)


class TestRouteTimeBaseline:
    def test_same_edge_forward_is_the_span(self, loop):
        assert loop.estimate_od(_od(0, 0.2, 0, 0.8)) == pytest.approx(6.0)

    def test_same_edge_backwards_drives_round_the_loop(self, loop):
        # Tail of edge 0, edges 1..3, head of edge 0 — not 0.6 * 10 s
        # backwards along a one-way segment.
        assert loop.estimate_od(_od(0, 0.8, 0, 0.2)) == pytest.approx(34.0)

    def test_different_edges_route_between(self, loop):
        assert loop.estimate_od(_od(0, 0.5, 2, 0.5)) == pytest.approx(20.0)
        assert loop.estimate_od(_od(0, 0.5, 1, 0.5)) == pytest.approx(10.0)

    def test_batch_matches_single(self, loop):
        ods = [_od(0, 0.2, 0, 0.8), _od(0, 0.8, 0, 0.2), _od(3, 0.1, 1, 0.9)]
        expected = [loop.estimate_od(od) for od in ods]
        assert loop.estimate_from_ods(ods).tolist() == expected

    def test_unmatched_od_rejected(self, loop):
        with pytest.raises(ValueError):
            loop.estimate_od(ODInput((0.0, 0.0), (1.0, 1.0), 600.0))
