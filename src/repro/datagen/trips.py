"""Trip generation: sampling OD pairs, choosing routes, driving them through
the traffic model and emitting GPS fixes.

Produces :class:`~repro.trajectory.model.TripRecord` objects — each an OD
input with its affiliated trajectory, mirroring the taxi orders of Table 2.
Key realism properties:

* departure times follow a demand curve with commuter peaks;
* OD endpoints land mid-edge (position ratios in (0, 1));
* route choice is stochastic (perturbed shortest path), so repeated trips
  between the same OD pair can travel different trajectories — the
  phenomenon of the paper's Example 1;
* the driven travel time integrates the time-varying edge speeds including
  the weather factor, so departure time genuinely changes travel time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import NoPathError, perturbed_route
from ..roadnet.spatial_index import SpatialIndex
from ..temporal.timeslot import SECONDS_PER_DAY
from ..trajectory.model import (
    GPSPoint, MatchedTrajectory, ODInput, PathElement, RawTrajectory,
    TripRecord,
)
from .traffic import TrafficModel
from .weather import WeatherProcess


@dataclass
class TripConfig:
    """Controls of the trip generator."""

    min_trip_edges: int = 4         # discard trivially short trips
    route_noise: float = 0.25       # route-choice diversity
    gps_period: float = 3.0         # seconds between fixes (Table 2: 3s)
    gps_noise: float = 8.0          # metres of GPS error
    speed_jitter: float = 0.05      # driver-specific speed multiplier sd
    max_route_attempts: int = 5

    def __post_init__(self):
        if self.gps_period <= 0 or self.gps_noise < 0:
            raise ValueError("invalid GPS parameters")
        if self.min_trip_edges < 1:
            raise ValueError("min_trip_edges must be >= 1")


DEMAND_PEAKS = ((8.0, 1.5), (12.5, 0.9), (18.5, 1.6))  # (hour, intensity)


def sample_departure_time(rng: np.random.Generator, day_start: float
                          ) -> float:
    """Sample a departure timestamp within one day under commuter demand."""
    # Mixture: uniform background + Gaussian peaks.
    weights = [1.0] + [w for _, w in DEMAND_PEAKS]
    total = sum(weights)
    r = rng.random() * total
    if r < weights[0]:
        hour = rng.uniform(5.5, 23.5)
    else:
        r -= weights[0]
        for (peak, w) in DEMAND_PEAKS:
            if r < w:
                hour = float(np.clip(rng.normal(peak, 1.0), 0.0, 23.99))
                break
            r -= w
    return day_start + hour * 3600.0


class TripGenerator:
    """Generate taxi trips over a road network + traffic model."""

    def __init__(self, net: RoadNetwork, traffic: TrafficModel,
                 weather: WeatherProcess,
                 config: Optional[TripConfig] = None, seed: int = 0):
        self.net = net
        self.traffic = traffic
        self.weather = weather
        self.config = config or TripConfig()
        self.rng = np.random.default_rng(seed)
        self.index = SpatialIndex(net)
        # Hotspot vertices: trips concentrate around a few centres the way
        # real taxi demand does.
        n = net.num_vertices
        self._hotspots = self.rng.choice(n, size=max(3, n // 20),
                                         replace=False)

    # ------------------------------------------------------------------
    def generate(self, num_trips: int, start_day: int = 0,
                 num_days: int = 7) -> List[TripRecord]:
        """Generate ``num_trips`` trips spread over ``num_days`` days."""
        trips: List[TripRecord] = []
        for chunk in self.generate_chunks(num_trips, start_day=start_day,
                                          num_days=num_days,
                                          chunk_size=num_trips):
            trips.extend(chunk)
        trips.sort(key=lambda tr: tr.od.depart_time)
        return trips

    def generate_chunks(self, num_trips: int, start_day: int = 0,
                        num_days: int = 7, chunk_size: int = 1024
                        ) -> Iterator[List[TripRecord]]:
        """Yield trips in *generation* order, ``chunk_size`` at a time.

        This is the out-of-core entry point: the chunked pipeline writes
        each chunk to disk and drops it before requesting the next one.
        :meth:`generate` is implemented on top of it, so both consume
        the RNG stream identically — concatenating the chunks gives
        exactly the one-shot trip list, up to the final
        departure-time sort.
        """
        if num_trips < 1 or num_days < 1:
            raise ValueError("num_trips and num_days must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        produced = 0
        attempts = 0
        max_attempts = num_trips * 20
        chunk: List[TripRecord] = []
        while produced < num_trips and attempts < max_attempts:
            attempts += 1
            day = start_day + int(self.rng.integers(num_days))
            depart = sample_departure_time(self.rng, day * SECONDS_PER_DAY)
            trip = self._one_trip(depart)
            if trip is not None:
                chunk.append(trip)
                produced += 1
                if len(chunk) >= chunk_size:
                    yield chunk
                    chunk = []
        if produced < num_trips:
            raise RuntimeError(
                f"could only generate {produced}/{num_trips} trips")
        if chunk:
            yield chunk

    # ------------------------------------------------------------------
    def _sample_od_vertices(self) -> Tuple[int, int]:
        rng = self.rng
        n = self.net.num_vertices

        def pick() -> int:
            if rng.random() < 0.5:
                return int(rng.choice(self._hotspots))
            return int(rng.integers(n))

        origin = pick()
        dest = pick()
        return origin, dest

    def _one_trip(self, depart_time: float) -> Optional[TripRecord]:
        cfg = self.config
        for _ in range(cfg.max_route_attempts):
            origin_v, dest_v = self._sample_od_vertices()
            if origin_v == dest_v:
                continue
            try:
                edges, _ = perturbed_route(self.net, origin_v, dest_v,
                                           self.rng, noise=cfg.route_noise)
            except NoPathError:
                continue
            if len(edges) < cfg.min_trip_edges:
                continue
            return self._drive(edges, depart_time)
        return None

    def _drive(self, edges: List[int], depart_time: float) -> TripRecord:
        """Integrate the traffic model along the route, emit GPS fixes."""
        cfg = self.config
        rng = self.rng
        net = self.net
        ratio_start = float(rng.uniform(0.05, 0.6))
        ratio_end = float(rng.uniform(0.4, 0.95))
        driver_factor = float(np.exp(rng.normal(0.0, cfg.speed_jitter)))

        elements: List[PathElement] = []
        gps: List[GPSPoint] = []
        t = depart_time
        next_fix_at = depart_time

        for k, eid in enumerate(edges):
            a, b = net.edge_vector(eid)
            length = net.edge(eid).length
            lo = ratio_start if k == 0 else 0.0
            hi = ratio_end if k == len(edges) - 1 else 1.0
            span = max(hi - lo, 1e-6)
            wf = self.weather.speed_factor(t)
            speed = self.traffic.speed(eid, t, wf) * driver_factor
            duration = span * length / speed
            enter = t
            # Emit GPS fixes while traversing.
            while next_fix_at <= enter + duration:
                progress = (next_fix_at - enter) / duration if duration > 0 \
                    else 0.0
                ratio = lo + span * progress
                xy = a + ratio * (b - a)
                gps.append(GPSPoint(
                    float(xy[0] + rng.normal(0, cfg.gps_noise)),
                    float(xy[1] + rng.normal(0, cfg.gps_noise)),
                    float(next_fix_at)))
                next_fix_at += cfg.gps_period
            t = enter + duration
            elements.append(PathElement(eid, enter, t))

        arrive_time = t
        # Final fix exactly at arrival.
        end_xy = np.asarray(net.point_at_ratio(edges[-1], ratio_end))
        gps.append(GPSPoint(
            float(end_xy[0] + rng.normal(0, cfg.gps_noise)),
            float(end_xy[1] + rng.normal(0, cfg.gps_noise)),
            float(arrive_time)))
        if len(gps) < 2 or arrive_time <= depart_time:
            # Degenerate micro-trip; signal the caller to retry.
            raise RuntimeError("degenerate trip generated")

        origin_xy = net.point_at_ratio(edges[0], ratio_start)
        dest_xy = net.point_at_ratio(edges[-1], ratio_end)
        od = ODInput(
            origin_xy=origin_xy,
            destination_xy=dest_xy,
            depart_time=depart_time,
            origin_edge=edges[0],
            destination_edge=edges[-1],
            ratio_start=ratio_start,
            ratio_end=ratio_end,
            weather=self.weather.category(depart_time),
        )
        trajectory = MatchedTrajectory(elements, ratio_start, ratio_end)
        raw = RawTrajectory(gps)
        return TripRecord(od=od, travel_time=arrive_time - depart_time,
                          trajectory=trajectory, raw=raw)
