"""Incremental per-cell speed estimation from completed trips.

The taxisim estimator shape (SNIPPETS.md, ``CV_TrafficEstimation``):
average velocity is total distance over total time, i.e. a
*distance-weighted* mean of per-segment speeds, and recent observations
matter more than old ones.  This module keeps that estimate per grid
cell as an exponentially decayed pair of running sums

    W[r, c] = Σ  λ^age · length_i           (weight: metres observed)
    S[r, c] = Σ  λ^age · length_i · speed_i

so ``S / W`` is the decayed distance-weighted mean speed, with ``λ``
chosen from a half-life measured in Δt periods.  Observations are
ingested in vectorised batches (one ``np.add.at`` scatter per touched
period, not one Python loop iteration per path element).

When the event clock completes a period, :meth:`advance_to`
materialises that period's grid — cells below the evidence floor fall
back to the running global mean speed (total distance / total time, the
taxisim ``compute_avg_velocity``) — as a
:class:`~repro.datagen.speed_matrix.SpeedMatrixStore`-compatible slice
ready for :class:`~repro.datagen.speed_matrix.LiveSpeedStore` overlay.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..datagen.speed_matrix import edge_cell_indices
from ..roadnet.graph import RoadNetwork
from ..trajectory.model import TripRecord


class StreamingSpeedEstimator:
    """Rolling per-cell speed state fed by batches of completed trips.

    Parameters
    ----------
    net / base_store:
        The road network and the training-time store whose grid
        geometry (cells, Δt, horizon) the live slices must match.
    half_life_periods:
        After this many Δt periods an observation's weight has halved.
    min_weight_metres:
        Evidence floor per cell: below this many (decayed) observed
        metres a cell reports the global mean instead of its own noisy
        ratio.
    """

    def __init__(self, net: RoadNetwork, base_store,
                 half_life_periods: float = 2.0,
                 min_weight_metres: float = 1.0):
        if half_life_periods <= 0:
            raise ValueError("half_life_periods must be positive")
        if min_weight_metres <= 0:
            raise ValueError("min_weight_metres must be positive")
        self.store = base_store
        self.config = base_store.config
        self.rows, self.cols = base_store.rows, base_store.cols
        self.periods = base_store.periods
        self.decay = float(0.5 ** (1.0 / half_life_periods))
        self.min_weight = float(min_weight_metres)

        self._edge_rows, self._edge_cols = edge_cell_indices(net, base_store)
        self._edge_len = net.arrays().length

        # Decayed running sums over every published period, plus pending
        # per-period accumulators awaiting their publish tick.
        self._weight = np.zeros((self.rows, self.cols))
        self._wspeed = np.zeros((self.rows, self.cols))
        self._pending: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._next_period = 0

        # Running global average velocity (taxisim compute_avg_velocity).
        self._total_metres = 0.0
        self._total_seconds = 0.0
        self.observations = 0

    # ------------------------------------------------------------------
    @property
    def global_mean_speed(self) -> float:
        """Live distance-over-time mean; training-time mean until the
        first observation arrives."""
        if self._total_seconds <= 0:
            return float(self.store.global_mean_speed)
        return self._total_metres / self._total_seconds

    def observe(self, trips: Sequence[TripRecord]) -> int:
        """Ingest a batch of completed trips; returns the number of
        path-element observations absorbed.

        Vectorised: the batch's path elements are gathered into flat
        arrays, then scattered into per-period pending grids with one
        ``np.add.at`` per touched period.  Late observations (for a
        period already published) fold into the next unpublished period
        rather than being dropped.
        """
        eids: List[int] = []
        durations: List[float] = []
        enters: List[float] = []
        for trip in trips:
            if trip.trajectory is None:
                continue
            for el in trip.trajectory.path:
                if el.duration <= 0:
                    continue
                eids.append(el.edge_id)
                durations.append(el.duration)
                enters.append(el.enter_time)
        if not eids:
            return 0
        eid_arr = np.asarray(eids, dtype=int)
        dur = np.asarray(durations)
        lengths = self._edge_len[eid_arr]
        speeds = lengths / dur
        rows = self._edge_rows[eid_arr]
        cols = self._edge_cols[eid_arr]
        periods = (np.asarray(enters)
                   // self.config.period_seconds).astype(int)
        periods = np.clip(periods, self._next_period, self.periods - 1)

        for period in np.unique(periods):
            mask = periods == period
            pending = self._pending.get(int(period))
            if pending is None:
                pending = (np.zeros((self.rows, self.cols)),
                           np.zeros((self.rows, self.cols)))
                self._pending[int(period)] = pending
            np.add.at(pending[0], (rows[mask], cols[mask]), lengths[mask])
            np.add.at(pending[1], (rows[mask], cols[mask]),
                      lengths[mask] * speeds[mask])

        self._total_metres += float(lengths.sum())
        self._total_seconds += float(dur.sum())
        self.observations += len(eid_arr)
        return len(eid_arr)

    def advance_to(self, t: float) -> List[Tuple[int, np.ndarray]]:
        """Materialise every period completed by event time ``t``.

        Returns ``[(period, matrix), ...]`` for the newly completed
        periods (empty while the clock is still inside the current one).
        Each matrix is the decayed distance-weighted mean speed per
        cell, global-mean-imputed where evidence is thin.  Periods with
        no recent evidence anywhere produce no slice at all — serving
        keeps reading the training-time store for them rather than a
        flat global-mean grid.
        """
        if t < 0:
            raise ValueError("time must be non-negative")
        target = int(t // self.config.period_seconds)
        published: List[Tuple[int, np.ndarray]] = []
        while self._next_period < target and self._next_period < self.periods:
            period = self._next_period
            self._weight *= self.decay
            self._wspeed *= self.decay
            pending = self._pending.pop(period, None)
            if pending is not None:
                self._weight += pending[0]
                self._wspeed += pending[1]
            if float(self._weight.max(initial=0.0)) >= self.min_weight:
                matrix = np.where(
                    self._weight >= self.min_weight,
                    self._wspeed / np.maximum(self._weight, 1e-12),
                    self.global_mean_speed)
                published.append((period, matrix))
            self._next_period += 1
        return published

    @property
    def next_period(self) -> int:
        return self._next_period
