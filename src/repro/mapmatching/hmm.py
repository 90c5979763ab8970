"""HMM map matching (Newson-Krumm style), the offline substitute for the
Valhalla matcher the paper uses.

States are candidate (edge, ratio) positions per GPS fix; emission
probability is Gaussian in the projection distance; transition probability
is exponential in the discrepancy between the great-circle displacement of
consecutive fixes and the route distance between their candidates.  Viterbi
decoding yields the most likely edge sequence, which is then expanded into a
connected path via shortest-path gap filling.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import NoPathError, dijkstra, dijkstra_sssp
from ..roadnet.spatial_index import SpatialIndex
from ..trajectory.interpolation import intervals_from_gps_times
from ..trajectory.model import GPSPoint, MatchedTrajectory, RawTrajectory
from .candidates import Candidate, CandidateLattice, candidate_lattice


class MatchingError(Exception):
    """Raised when a trajectory cannot be matched to the network."""


class LRUCache:
    """Bounded LRU mapping with hit/miss/eviction accounting.

    No locking: a matcher is used from one thread, and fork-pool workers
    each own a copy-on-write copy.  ``get`` counts a hit or miss;
    ``peek``-style access is deliberately absent so the exported hit
    rate reflects every lookup.
    """

    _MISSING = object()

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key, default=None):
        value = self._data.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {"size": float(len(self._data)),
                "capacity": float(self.capacity),
                "hits": float(self.hits), "misses": float(self.misses),
                "evictions": float(self.evictions),
                "hit_rate": self.hit_rate}


@dataclass
class HMMConfig:
    """Tuning parameters of the matcher.

    ``sigma`` is the GPS noise standard deviation (metres) of the Gaussian
    emission model; ``beta`` scales the transition penalty on route-vs-
    displacement discrepancy; ``radius`` bounds the candidate search.

    ``engine`` selects the Viterbi implementation: ``"vectorized"``
    (numpy emission and transition tensors over the whole trajectory's
    candidate lattice, route distances from cached per-vertex SSSP
    rows) or
    ``"reference"`` (the retained per-candidate scalar oracle).  Both
    produce the same matched paths; the benchmark suite asserts the
    speedup and the parity tests assert the agreement.
    """

    sigma: float = 25.0
    beta: float = 30.0
    radius: float = 80.0
    max_candidates: int = 8
    max_route_factor: float = 8.0    # prune absurd detours
    engine: str = "vectorized"
    route_cache_size: int = 32768    # scalar-engine pairwise route cache
    sssp_cache_size: int = 4096      # vectorized-engine per-vertex rows

    def __post_init__(self):
        if self.sigma <= 0 or self.beta <= 0 or self.radius <= 0:
            raise ValueError("sigma, beta and radius must be positive")
        if self.engine not in ("vectorized", "reference"):
            raise ValueError("engine must be 'vectorized' or 'reference'")
        if self.route_cache_size < 1 or self.sssp_cache_size < 1:
            raise ValueError("cache sizes must be >= 1")


class HMMMapMatcher:
    """Match raw GPS trajectories onto a road network."""

    def __init__(self, net: RoadNetwork, index: Optional[SpatialIndex] = None,
                 config: Optional[HMMConfig] = None):
        self.net = net
        self.index = index or SpatialIndex(net)
        self.config = config or HMMConfig()
        self._route_cache = LRUCache(self.config.route_cache_size)
        self._sssp_cache = LRUCache(self.config.sssp_cache_size)

    # ------------------------------------------------------------------
    def match(self, traj: RawTrajectory) -> MatchedTrajectory:
        """Match a raw trajectory; returns a :class:`MatchedTrajectory`.

        Raises :class:`MatchingError` when Viterbi finds no feasible state
        sequence (e.g. all candidates of some fix are unreachable).
        """
        points = traj.points
        lattice = candidate_lattice(self.index, points, self.config.radius,
                                    self.config.max_candidates)
        if not lattice.counts.all():
            raise MatchingError("a GPS fix produced no candidates")
        states = self._viterbi(points, lattice)
        chosen = [lattice.candidate(t, s) for t, s in enumerate(states)]
        edge_seq, route_positions = self._expand_path(chosen)
        start, end = chosen[0], chosen[-1]
        times = [p.timestamp for p in points]
        elements = intervals_from_gps_times(
            self.net, edge_seq, times, route_positions,
            start.ratio, end.ratio)
        return MatchedTrajectory(elements, start.ratio, end.ratio)

    def match_point(self, x: float, y: float) -> Tuple[int, float]:
        """Match a single point (an OD endpoint): (edge_id, ratio)."""
        edge_id, _, ratio = self.index.nearest_edge(x, y)
        return edge_id, ratio

    def match_request(self, request: "MatchRequest") -> "MatchResult":
        """Match one request, capturing :class:`MatchingError` in the
        result instead of raising — the unit of work of
        :func:`repro.mapmatching.batch.match_many`."""
        from .batch import MatchResult
        try:
            matched = self.match(request.trajectory)
        except MatchingError as exc:
            return MatchResult(index=request.index, trajectory=None,
                               error=str(exc))
        return MatchResult(index=request.index, trajectory=matched)

    def match_many(self, trajs: Sequence[RawTrajectory],
                   jobs: int = 1) -> List["MatchResult"]:
        """Match a batch of trajectories; see
        :func:`repro.mapmatching.batch.match_many`."""
        from .batch import match_many
        return match_many(self, trajs, jobs=jobs)

    # ------------------------------------------------------------------
    # Caches / observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss statistics of the route and SSSP LRU caches."""
        return {"route": self._route_cache.stats(),
                "sssp": self._sssp_cache.stats()}

    def register_cache_gauges(self, registry: MetricsRegistry,
                              prefix: str = "match.cache") -> None:
        """Export cache hit rates as gauges, mirroring ``serve.cache.*``."""
        registry.register_gauge(f"{prefix}.route.hit_rate",
                                lambda: self._route_cache.hit_rate)
        registry.register_gauge(f"{prefix}.route.size",
                                lambda: len(self._route_cache))
        registry.register_gauge(f"{prefix}.sssp.hit_rate",
                                lambda: self._sssp_cache.hit_rate)
        registry.register_gauge(f"{prefix}.sssp.size",
                                lambda: len(self._sssp_cache))

    # ------------------------------------------------------------------
    # Viterbi
    # ------------------------------------------------------------------
    def _viterbi(self, points: Sequence[GPSPoint],
                 lattice: CandidateLattice) -> List[int]:
        if self.config.engine == "vectorized":
            return self._viterbi_vectorized(points, lattice)
        return self._viterbi_reference(points, lattice.columns())

    def _viterbi_reference(self, points: Sequence[GPSPoint],
                           columns: List[List[Candidate]]) -> List[int]:
        """Per-candidate scalar Viterbi — the oracle the vectorised
        engine is benchmarked and parity-tested against."""
        cfg = self.config
        n = len(points)
        # Log-probability tables.
        prev_scores = np.array([self._emission(c) for c in columns[0]])
        back: List[np.ndarray] = []
        for t in range(1, n):
            displacement = float(np.hypot(
                points[t].x - points[t - 1].x,
                points[t].y - points[t - 1].y))
            cur = columns[t]
            prev = columns[t - 1]
            scores = np.full(len(cur), -np.inf)
            pointers = np.zeros(len(cur), dtype=np.int64)
            for j, cand in enumerate(cur):
                emit = self._emission(cand)
                best_score, best_i = -np.inf, 0
                for i, prev_cand in enumerate(prev):
                    if not np.isfinite(prev_scores[i]):
                        continue
                    trans = self._transition(prev_cand, cand, displacement)
                    score = prev_scores[i] + trans
                    if score > best_score:
                        best_score, best_i = score, i
                scores[j] = best_score + emit
                pointers[j] = best_i
            if not np.any(np.isfinite(scores)):
                raise MatchingError(
                    f"no feasible transition into GPS fix {t}")
            prev_scores = scores
            back.append(pointers)

        # Backtrack.
        states = [int(np.argmax(prev_scores))]
        for pointers in reversed(back):
            states.append(int(pointers[states[-1]]))
        states.reverse()
        return states

    def _viterbi_vectorized(self, points: Sequence[GPSPoint],
                            lattice: CandidateLattice) -> List[int]:
        """Lattice-vectorised Viterbi.

        Emissions form one padded ``(n, K)`` array and transitions one
        ``(n-1, K, K)`` tensor (see :meth:`_transition_tensor`), so the
        per-fix loop is an add and an argmax.  Padding slots score
        ``-inf`` and never win a maximum.  Expression trees mirror the
        scalar reference exactly (same operand order), so both engines
        produce identical log-probabilities.
        """
        sigma = self.config.sigma
        emission = np.where(
            lattice.valid,
            -0.5 * (lattice.distances / sigma) ** 2
            - np.log(sigma * np.sqrt(2 * np.pi)),
            -np.inf)
        n, width = emission.shape
        trans = self._transition_tensor(points, lattice)
        scores = np.empty((n, width))
        scores[0] = emission[0]
        back = np.empty((n - 1, width), dtype=np.int64)
        slots = np.arange(width)
        for t in range(1, n):
            total = scores[t - 1][:, None] + trans[t - 1]
            # np.argmax keeps the first maximum, like the reference's
            # strict-improvement scan.
            back[t - 1] = pointers = np.argmax(total, axis=0)
            scores[t] = total[pointers, slots] + emission[t]
        # A fix with no finite score leaves every later fix at -inf, so
        # the first such fix is the one the reference rejects.
        dead = ~np.isfinite(scores[1:]).any(axis=1)
        if dead.any():
            raise MatchingError(
                f"no feasible transition into GPS fix "
                f"{int(np.argmax(dead)) + 1}")
        states = [int(np.argmax(scores[-1]))]
        for pointers in back[::-1]:
            states.append(int(pointers[states[-1]]))
        states.reverse()
        return states

    def _sssp_row(self, vertex: int) -> np.ndarray:
        row = self._sssp_cache.get(vertex)
        if row is None:
            row = dijkstra_sssp(self.net, vertex)
            self._sssp_cache.put(vertex, row)
        return row

    def _transition_tensor(self, points: Sequence[GPSPoint],
                           lattice: CandidateLattice) -> np.ndarray:
        """``(n-1, K, K)`` transition log-probabilities: entry
        ``[t, i, j]`` scores candidate ``i`` of fix ``t`` followed by
        candidate ``j`` of fix ``t + 1``."""
        cfg = self.config
        arrays = self.net.arrays()
        eids, ratios, valid = lattice.edge_ids, lattice.ratios, lattice.valid
        lengths = arrays.length[eids]
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        displacement = np.hypot(xs[1:] - xs[:-1],
                                ys[1:] - ys[:-1])[:, None, None]
        between = self._between(arrays.end[eids[:-1]], valid[:-1],
                                arrays.start[eids[1:]], valid[1:])
        eid_a, ratio_a, len_a = (eids[:-1, :, None], ratios[:-1, :, None],
                                 lengths[:-1, :, None])
        eid_b, ratio_b, len_b = (eids[1:, None, :], ratios[1:, None, :],
                                 lengths[1:, None, :])
        tail = (1.0 - ratio_a) * len_a
        head = ratio_b * len_b
        # Same operand order as the scalar `tail + between + head`.
        route = (tail + between) + head
        same = (eid_a == eid_b) & (ratio_b >= ratio_a)
        route = np.where(same, (ratio_b - ratio_a) * len_a, route)
        penalty = -np.abs(route - displacement) / cfg.beta
        # Unreachable pairs have route == inf, hence penalty == -inf,
        # matching the reference's `route is None -> -inf`.
        prune = route > cfg.max_route_factor * displacement + 200.0
        return np.where(prune, penalty - 50.0, penalty)

    def _between(self, ends: np.ndarray, ends_valid: np.ndarray,
                 starts: np.ndarray, starts_valid: np.ndarray
                 ) -> np.ndarray:
        """Network distances ``ends[t, i] -> starts[t, j]`` as a
        ``(n-1, K, K)`` tensor, from one SSSP row per distinct valid
        end vertex of the trajectory (padding slots read row 0)."""
        sources, src = np.unique(ends[ends_valid], return_inverse=True)
        targets, dst = np.unique(starts[starts_valid], return_inverse=True)
        table = np.stack([self._sssp_row(v)[targets]
                          for v in sources.tolist()])
        row = np.zeros(ends.shape, dtype=np.int64)
        row[ends_valid] = src
        col = np.zeros(starts.shape, dtype=np.int64)
        col[starts_valid] = dst
        return table[row[:, :, None], col[:, None, :]]

    def _emission(self, cand: Candidate) -> float:
        sigma = self.config.sigma
        return float(-0.5 * (cand.distance / sigma) ** 2
                     - np.log(sigma * np.sqrt(2 * np.pi)))

    def _transition(self, a: Candidate, b: Candidate,
                    displacement: float) -> float:
        route = self._route_distance(a, b)
        if route is None:
            return -np.inf
        diff = abs(route - displacement)
        penalty = -diff / self.config.beta
        # Soft prune: absurd detours get a heavy (but finite) extra
        # penalty rather than -inf, so near-stationary fixes in congestion
        # (displacement ~ GPS noise) never strand the Viterbi lattice.
        if route > self.config.max_route_factor * displacement + 200.0:
            penalty -= 50.0
        return float(penalty)

    def _route_distance(self, a: Candidate, b: Candidate) -> Optional[float]:
        """Network distance between two candidate positions.

        Same edge, forward order: simply the ratio gap.  Otherwise: distance
        from a's position to the end of its edge, a shortest path to the
        start of b's edge, plus b's partial edge.
        """
        # Exact ratios: candidates a hair apart on one edge have
        # different route distances, so rounded keys would collide.
        key = (a.edge_id, a.ratio, b.edge_id, b.ratio)
        # None (unreachable) is a legitimate cached value, so distinguish
        # a miss with the cache's own sentinel default.
        result = self._route_cache.get(key, LRUCache._MISSING)
        if result is LRUCache._MISSING:
            result = self._route_distance_uncached(a, b)
            self._route_cache.put(key, result)
        return result

    def _route_distance_uncached(self, a: Candidate,
                                 b: Candidate) -> Optional[float]:
        net = self.net
        edge_a, edge_b = net.edge(a.edge_id), net.edge(b.edge_id)
        if a.edge_id == b.edge_id and b.ratio >= a.ratio:
            return (b.ratio - a.ratio) * edge_a.length
        tail = (1.0 - a.ratio) * edge_a.length
        head = b.ratio * edge_b.length
        try:
            _, between = dijkstra(net, edge_a.end, edge_b.start)
        except NoPathError:
            return None
        return tail + between + head

    # ------------------------------------------------------------------
    # Path expansion
    # ------------------------------------------------------------------
    def _expand_path(self, cands: List[Candidate]
                     ) -> Tuple[List[int], List[float]]:
        """Expand the matched candidates (one per GPS fix) into a
        connected edge sequence.

        Returns the edge sequence and, aligned with the GPS fixes, each
        fix's cumulative route position (metres from the trip origin) for
        interval interpolation.
        """
        net = self.net
        edge_seq: List[int] = [cands[0].edge_id]
        first_edge_len = net.edge(cands[0].edge_id).length
        origin_offset = cands[0].ratio * first_edge_len
        # Route position of the first fix relative to path start (which we
        # define as the entry point of the first edge at the start ratio).
        positions: List[float] = [0.0]
        travelled = 0.0

        for prev, cur in zip(cands, cands[1:]):
            if cur.edge_id == edge_seq[-1]:
                # Same edge: position advances by the ratio delta (clamped
                # at zero in case of GPS jitter moving slightly backwards).
                edge_len = net.edge(cur.edge_id).length
                last_ratio = self._ratio_on_last_edge(
                    edge_seq, positions, travelled, prev, cur)
                delta = max(cur.ratio - last_ratio, 0.0) * edge_len
                travelled += delta
                positions.append(travelled)
                continue
            # Different edge: walk the shortest path between them.
            edge_prev = net.edge(edge_seq[-1])
            edge_cur = net.edge(cur.edge_id)
            prev_ratio = self._ratio_on_last_edge(
                edge_seq, positions, travelled, prev, cur)
            travelled += (1.0 - prev_ratio) * edge_prev.length
            try:
                gap_edges, gap_len = dijkstra(net, edge_prev.end,
                                              edge_cur.start)
            except NoPathError as exc:
                raise MatchingError("matched states are disconnected") from exc
            for eid in gap_edges:
                edge_seq.append(eid)
            travelled += gap_len
            edge_seq.append(cur.edge_id)
            travelled += cur.ratio * edge_cur.length
            positions.append(travelled)

        return edge_seq, positions

    def _ratio_on_last_edge(self, edge_seq, positions, travelled,
                            prev: Candidate, cur: Candidate) -> float:
        """Ratio already covered on the current last edge of the path."""
        if prev.edge_id == edge_seq[-1]:
            return prev.ratio
        return 0.0
