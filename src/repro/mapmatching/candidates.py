"""Candidate generation for HMM map matching.

For each GPS fix we enumerate road segments within an error radius (falling
back to the k nearest if the radius is empty), each candidate carrying the
projected position: (edge id, projection distance, position ratio).  A whole
trajectory's candidates come out of one batched radius query as a padded
:class:`CandidateLattice`, the array form the Viterbi decoder works on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..roadnet.spatial_index import SpatialIndex
from ..trajectory.model import GPSPoint


@dataclass(frozen=True)
class Candidate:
    """A possible road position for one GPS fix."""

    edge_id: int
    distance: float     # metres from the fix to the projected point
    ratio: float        # position ratio along the edge in [0, 1]


@dataclass(frozen=True)
class CandidateLattice:
    """Every fix's candidate column as padded ``(n, K)`` arrays.

    Row ``t`` holds fix ``t``'s ``counts[t]`` candidates in
    :func:`candidates_for_point` order.  Slots past a row's count are
    padding: they hold valid edge ids (so gathers stay in bounds) but
    no candidate, and ``valid`` masks them out.
    """

    edge_ids: np.ndarray     # (n, K) int64
    distances: np.ndarray    # (n, K) float64
    ratios: np.ndarray       # (n, K) float64
    counts: np.ndarray       # (n,) int64

    @property
    def valid(self) -> np.ndarray:
        return np.arange(self.edge_ids.shape[1]) < self.counts[:, None]

    def candidate(self, t: int, slot: int) -> Candidate:
        return Candidate(int(self.edge_ids[t, slot]),
                         float(self.distances[t, slot]),
                         float(self.ratios[t, slot]))

    def columns(self) -> List[List[Candidate]]:
        """The lattice as per-fix :class:`Candidate` lists."""
        eids = self.edge_ids.tolist()
        dists = self.distances.tolist()
        ratios = self.ratios.tolist()
        return [[Candidate(*c) for c in zip(eids[t][:k], dists[t][:k],
                                            ratios[t][:k])]
                for t, k in enumerate(self.counts.tolist())]


def candidates_for_point(index: SpatialIndex, point: GPSPoint,
                         radius: float = 80.0,
                         max_candidates: int = 8,
                         min_candidates: int = 2) -> List[Candidate]:
    """Candidate edges for a GPS fix.

    Radius search first; if it returns fewer than ``min_candidates`` the
    search falls back to k-nearest so a noisy fix never strands the HMM
    with an empty column.
    """
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    hits = index.edges_within(point.x, point.y, radius)[:max_candidates]
    if len(hits) < min_candidates:
        hits = index.k_nearest_edges(point.x, point.y,
                                     k=max(min_candidates, 1))
    return [Candidate(eid, dist, ratio) for eid, dist, ratio in hits]


def candidate_lattice(index: SpatialIndex, points: Sequence[GPSPoint],
                      radius: float = 80.0,
                      max_candidates: int = 8,
                      min_candidates: int = 2) -> CandidateLattice:
    """:func:`candidates_for_point` for every fix of a trajectory, from
    one batched radius query; fixes short of ``min_candidates`` fall
    back to k-nearest one at a time."""
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    counts, eids, dists, ratios = index.edges_within_many(xs, ys, radius)
    rows = np.repeat(np.arange(len(xs)), counts)
    rank = np.arange(len(eids)) - np.repeat(np.cumsum(counts) - counts,
                                            counts)
    keep = rank < max_candidates
    counts = np.minimum(counts, max_candidates)
    fallback = {t: index.k_nearest_edges(xs[t], ys[t],
                                         k=max(min_candidates, 1))
                for t in np.flatnonzero(counts < min_candidates).tolist()}
    for t, hits in fallback.items():
        counts[t] = len(hits)
    shape = (len(xs), int(counts.max()) if len(xs) else 0)
    lattice = CandidateLattice(np.zeros(shape, dtype=np.int64),
                               np.zeros(shape), np.zeros(shape), counts)
    at = (rows[keep], rank[keep])
    lattice.edge_ids[at] = eids[keep]
    lattice.distances[at] = dists[keep]
    lattice.ratios[at] = ratios[keep]
    for t, hits in fallback.items():
        for slot, (eid, dist, ratio) in enumerate(hits):
            lattice.edge_ids[t, slot] = eid
            lattice.distances[t, slot] = dist
            lattice.ratios[t, slot] = ratio
    return lattice


def candidates_for_trajectory(index: SpatialIndex,
                              points: Sequence[GPSPoint],
                              radius: float = 80.0,
                              max_candidates: int = 8
                              ) -> List[List[Candidate]]:
    """Candidate columns for every fix of a trajectory."""
    return candidate_lattice(index, points, radius,
                             max_candidates).columns()
