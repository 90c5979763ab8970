"""Workload inputs, made from the workload seed and nothing else.

The benchmark owns its inputs: the batch workloads' cities are registry
presets re-seeded from ``--seed``, and serving queries come from the
generators below, seeded from ``--seed`` too,
not from the program's own ``synthetic_queries`` (program code, which
would let the workload drift whenever the program changes).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.datagen import PRESETS, preset_network
from repro.trajectory.model import Query

# Sizes.  build-mega: two 30-trip chunks, matched serially (see
# ``workloads.MEGA_MATCHER_JOBS``); a build takes about 4-5 s on the
# 2-vCPU VM.  train-mini (and the artifact both serve workloads load):
# the ``cli train`` path at a size whose generation, pretraining and fit
# shares are all visible.  A batch run builds CITIES_PER_RUN seeded
# cities in turn (see ``workloads._measure_batch``).
CITIES_PER_RUN = 3
CANDIDATES_PER_SEED = 16
MEGA_CITY = "mega-chengdu"
MEGA_TRIPS = 60
MEGA_CHUNK = 30
MINI_CITY = "mini-chengdu"
MINI_TRIPS = 1000
TRAIN_EPOCHS = 2

# Both serve workloads load a model of the unseeded mini city: a serve
# workload's input is its query stream, which the seed draws.  (Seeded
# cities moved serve-live capacity by a sixth from seed to seed, as
# their road layouts make query matching cheaper or dearer.)
SERVE_CITY = MINI_CITY
HOT_WINDOW_S = 3600.0        # serve-hot departures fall in one hour


def seeded_city(base: str, seed: int) -> str:
    """Register ``base`` re-seeded from ``seed``; returns the registry
    name.  ``build(DatasetSpec(name))`` then generates a different city
    and trip set per seed, and artifact loading can regenerate it by
    name in any process that called this first."""
    preset = PRESETS[base]
    name = f"{base}.seed{seed}"
    if name not in PRESETS:
        PRESETS[name] = dataclasses.replace(
            preset, name=name, seed=preset.seed + 100 * (seed + 1))
    return name


def seeded_cities(base: str, seed: int) -> Tuple[List[str], List[str]]:
    """The CITIES_PER_RUN cities a batch run builds for workload seed
    ``seed`` (no two workload seeds share one), and the candidates passed
    over on the way.  The road-network generator cannot make some seeds
    strongly connected and raises for them (``grid_city``: "could not
    repair connectivity"); such a candidate is skipped, and the run
    reports it."""
    cities: List[str] = []
    skipped: List[str] = []
    for part in range(CANDIDATES_PER_SEED):
        name = seeded_city(base, seed * CANDIDATES_PER_SEED + part)
        try:
            preset_network(PRESETS[name])
        except RuntimeError:
            skipped.append(name)
            continue
        cities.append(name)
        if len(cities) == CITIES_PER_RUN:
            return cities, skipped
    raise RuntimeError(f"no {CITIES_PER_RUN} buildable cities among "
                       f"{CANDIDATES_PER_SEED} candidates for seed {seed}")


def held_out(dataset) -> List:
    """Validation + test trips: never seen by the fit."""
    return list(dataset.split.validation) + list(dataset.split.test)


def hot_queries(dataset, seed: int) -> Iterator[Query]:
    """serve-hot: a few hundred held-out ODs re-asked forever, departing
    inside one hour, so the OD-match and speed-slice caches hit."""
    ods = [(t.od.origin_xy, t.od.destination_xy) for t in held_out(dataset)]
    t0 = float(dataset.split.test[0].od.depart_time)
    rng = np.random.default_rng([seed, 1])
    while True:
        picks = rng.integers(0, len(ods), size=1024)
        departs = t0 + rng.uniform(0.0, HOT_WINDOW_S, size=1024)
        for pick, depart in zip(picks, departs):
            origin, destination = ods[int(pick)]
            yield Query(origin, destination, float(depart))


def random_points(dataset, seed: int, n: int) -> np.ndarray:
    """``(n, 2, 2)`` origin/destination pairs drawn uniformly over the
    network's bounding box: continuous coordinates never repeat, so
    every OD-match lookup misses."""
    min_x, min_y, max_x, max_y = dataset.net.bounding_box()
    rng = np.random.default_rng([seed, 2])
    xs = rng.uniform(min_x, max_x, size=(n, 2))
    ys = rng.uniform(min_y, max_y, size=(n, 2))
    return np.stack([xs, ys], axis=-1)


def trip_tail(dataset) -> Tuple[np.ndarray, Sequence]:
    """The held-out test trips in completion order, for replay through
    the streaming estimator: ``(completion_times, trips)``."""
    trips = sorted(dataset.split.test,
                   key=lambda t: t.od.depart_time + t.travel_time)
    done = np.array([t.od.depart_time + t.travel_time for t in trips])
    return done, trips
