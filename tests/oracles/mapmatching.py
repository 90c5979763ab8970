"""Per-candidate scalar Viterbi: the oracle of the lattice-vectorised
decoder in ``repro.mapmatching.hmm``.

Each transition is scored pair by pair from a point-to-point
``dijkstra`` route distance.  Expression trees match the vectorised
kernel operand for operand, so both decode identical state sequences.
:func:`reference_matcher` runs whole ``match`` calls on it.
"""

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.mapmatching import HMMMapMatcher, MatchingError
from repro.mapmatching.candidates import Candidate
from repro.roadnet.shortest_path import NoPathError, dijkstra
from repro.trajectory.model import GPSPoint


def viterbi_reference(matcher, points: Sequence[GPSPoint],
                      columns: List[List[Candidate]]) -> List[int]:
    """Most likely candidate index per fix, scanning every pair."""
    cfg = matcher.config
    routes: Dict[tuple, Optional[float]] = {}

    def emission(cand: Candidate) -> float:
        sigma = cfg.sigma
        return float(-0.5 * (cand.distance / sigma) ** 2
                     - np.log(sigma * np.sqrt(2 * np.pi)))

    def transition(a: Candidate, b: Candidate,
                   displacement: float) -> float:
        # Exact ratios: candidates a hair apart on one edge have
        # different route distances, so rounded keys would collide.
        key = (a.edge_id, a.ratio, b.edge_id, b.ratio)
        if key not in routes:
            routes[key] = route_distance(matcher.net, a, b)
        route = routes[key]
        if route is None:
            return -np.inf
        penalty = -abs(route - displacement) / cfg.beta
        # Soft prune: absurd detours get a heavy (but finite) extra
        # penalty rather than -inf.
        if route > cfg.max_route_factor * displacement + 200.0:
            penalty -= 50.0
        return float(penalty)

    n = len(points)
    prev_scores = np.array([emission(c) for c in columns[0]])
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
            emit = emission(cand)
            best_score, best_i = -np.inf, 0
            for i, prev_cand in enumerate(prev):
                if not np.isfinite(prev_scores[i]):
                    continue
                score = prev_scores[i] + transition(prev_cand, cand,
                                                    displacement)
                if score > best_score:
                    best_score, best_i = score, i
            scores[j] = best_score + emit
            pointers[j] = best_i
        if not np.any(np.isfinite(scores)):
            raise MatchingError(f"no feasible transition into GPS fix {t}")
        prev_scores = scores
        back.append(pointers)

    states = [int(np.argmax(prev_scores))]
    for pointers in reversed(back):
        states.append(int(pointers[states[-1]]))
    states.reverse()
    return states


def route_distance(net, a: Candidate, b: Candidate) -> Optional[float]:
    """Network distance between two candidate positions.

    Same edge, forward order: simply the ratio gap.  Otherwise: distance
    from a's position to the end of its edge, a shortest path to the
    start of b's edge, plus b's partial edge.  ``None`` if unreachable.
    """
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


def reference_matcher(net, config=None) -> HMMMapMatcher:
    """An :class:`HMMMapMatcher` whose ``match`` decodes with
    :func:`viterbi_reference` instead of the lattice kernel."""
    matcher = HMMMapMatcher(net, config=config)
    matcher._viterbi = lambda points, lattice: viterbi_reference(
        matcher, points, lattice.columns())
    return matcher
