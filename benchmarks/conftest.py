"""Shared fixtures for the benchmark suite.

Every table/figure of the paper's evaluation (Section 6) has one benchmark
module.  Expensive artefacts — datasets and trained models — are built once
per session here and reused.

Scaling: the default sizes run the whole suite on a laptop CPU in tens of
minutes.  Set ``REPRO_BENCH_SCALE`` (float, default 1.0) to scale trip
counts and training epochs toward paper scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.baselines import (
    DeepODEstimator, GBMEstimator, LinearRegressionEstimator,
    MURATEstimator, STNNEstimator, TEMPEstimator,
)
from repro.core import DeepODConfig, variant_config
from repro.datagen import DatasetSpec, build
from repro.eval import run_comparison


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@dataclass
class BenchParams:
    scale: float
    trips_chengdu: int
    trips_xian: int
    trips_beijing: int
    num_days: int
    epochs: int

    @classmethod
    def from_env(cls) -> "BenchParams":
        s = bench_scale()
        return cls(
            scale=s,
            trips_chengdu=int(6000 * s),
            trips_xian=int(4000 * s),
            trips_beijing=int(7000 * s),
            num_days=14,
            epochs=max(int(12 * min(s, 2.0)), 3),
        )


@pytest.fixture(scope="session")
def params() -> BenchParams:
    return BenchParams.from_env()


def small_deepod_config(params: BenchParams, **overrides) -> DeepODConfig:
    """CPU-sized DeepOD config; same architecture, smaller widths."""
    base = dict(d_s=32, d_t=16, d1_m=32, d2_m=16, d3_m=32, d4_m=16,
                d5_m=32, d6_m=16, d7_m=32, d9_m=32, d_h=32, d_traf=16,
                batch_size=64, epochs=params.epochs, seed=0,
                aux_weight=0.3, lr_decay_epochs=4,
                use_external_features=False)
    base.update(overrides)
    return DeepODConfig(**base)


@pytest.fixture(scope="session")
def chengdu(params):
    return build(DatasetSpec("mini-chengdu", num_trips=params.trips_chengdu,
                     num_days=params.num_days))


@pytest.fixture(scope="session")
def xian(params):
    return build(DatasetSpec("mini-xian", num_trips=params.trips_xian,
                     num_days=params.num_days))


@pytest.fixture(scope="session")
def beijing(params):
    return build(DatasetSpec("mini-beijing", num_trips=params.trips_beijing,
                     num_days=params.num_days))


def build_main_estimators(params: BenchParams):
    """The six methods of the main comparison (Tables 4-6)."""
    return [
        TEMPEstimator(),
        LinearRegressionEstimator(),
        GBMEstimator(num_trees=40, seed=0),
        STNNEstimator(epochs=params.epochs, seed=0),
        MURATEstimator(epochs=params.epochs, seed=0),
        DeepODEstimator(small_deepod_config(params), eval_every=0),
    ]


@pytest.fixture(scope="session")
def chengdu_estimators(params):
    """Fitted-estimator cache (fitting happens inside run_comparison)."""
    return {est.name: est for est in build_main_estimators(params)}


@pytest.fixture(scope="session")
def chengdu_results(chengdu, params, chengdu_estimators):
    """Main-method comparison on mini-chengdu, reused by several benches."""
    return run_comparison(list(chengdu_estimators.values()), chengdu)


@pytest.fixture(scope="session")
def xian_results(xian, params):
    return run_comparison(build_main_estimators(params), xian)


@pytest.fixture(scope="session")
def beijing_results(beijing, params):
    return run_comparison(build_main_estimators(params), beijing)


@pytest.fixture(scope="session")
def chengdu_ablations(chengdu, params):
    """The Table 4 ablation rows (N-st, N-sp, N-tp, N-other, DeepOD).

    External features are enabled here so N-other removes something.
    """
    base = small_deepod_config(params, use_external_features=True)
    estimators = [
        DeepODEstimator(variant_config(base, name), name=name, eval_every=0)
        for name in ("N-st", "N-sp", "N-tp", "N-other", "DeepOD")
    ]
    return run_comparison(estimators, chengdu)


def print_header(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)
