"""Batched candidate search must reproduce per-point candidate search:
same edges, distances, ratios and order, k-nearest fallback included."""

import numpy as np
import pytest

from repro.mapmatching import candidates_for_point, candidates_for_trajectory
from repro.mapmatching.candidates import candidate_lattice
from repro.roadnet import SpatialIndex, grid_city
from repro.trajectory import GPSPoint


@pytest.fixture(scope="module")
def city():
    # No jitter: vertices sit on round coordinates, so fixes at or
    # diagonally off a vertex project onto its incident edges with the
    # ratio clipped to 0 or 1 and tie exactly in distance.
    return grid_city(6, 6, seed=0, jitter=0.0)


def _fixes(net, seed=0):
    rng = np.random.default_rng(seed)
    min_x, min_y, max_x, max_y = net.bounding_box()
    points = [GPSPoint(float(rng.uniform(min_x, max_x)),
                       float(rng.uniform(min_y, max_y)), 0.0)
              for _ in range(40)]
    for v in net.vertices():
        points.append(GPSPoint(v.x, v.y, 0.0))
        points.append(GPSPoint(v.x - 9.0, v.y - 9.0, 0.0))
    # Far outside the network: the radius search is empty and the
    # k-nearest fallback supplies the column.
    points.append(GPSPoint(-9000.0, -9000.0, 0.0))
    points.append(GPSPoint(max_x + 4000.0, min_y, 0.0))
    return points


@pytest.mark.parametrize("radius,max_candidates",
                         [(80.0, 8), (40.0, 3), (150.0, 2), (80.0, 1)])
def test_batched_equals_per_point(city, radius, max_candidates):
    index = SpatialIndex(city)
    points = _fixes(city)
    batched = candidates_for_trajectory(index, points, radius,
                                        max_candidates)
    per_point = [candidates_for_point(index, p, radius, max_candidates)
                 for p in points]
    assert batched == per_point
    tied = sum(len(col) - len({c.distance for c in col}) for col in batched)
    assert tied > 0                     # the exact-tie case is exercised
    assert len(batched[-1]) == 2        # the fallback case is exercised


def test_lattice_padding(city):
    index = SpatialIndex(city)
    points = _fixes(city, seed=1)
    lattice = candidate_lattice(index, points, radius=80.0,
                                max_candidates=8)
    columns = lattice.columns()
    assert lattice.edge_ids.shape == (len(points), int(lattice.counts.max()))
    assert lattice.valid.sum(axis=1).tolist() == [len(c) for c in columns]
    assert ((lattice.edge_ids >= 0)
            & (lattice.edge_ids < city.num_edges)).all()
    t = int(np.argmax(lattice.counts))
    assert lattice.candidate(t, 0) == columns[t][0]


def test_max_candidates_validated(city):
    with pytest.raises(ValueError):
        candidate_lattice(SpatialIndex(city), _fixes(city), max_candidates=0)
