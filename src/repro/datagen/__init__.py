"""Synthetic taxi-city simulator — the offline substitute for the paper's
Didi Chengdu/Xi'an and Beijing taxi-order datasets (Table 2)."""

from .traffic import TrafficConfig, TrafficModel
from .weather import (
    N_WEATHER_TYPES, WEATHER_TYPES, WeatherConfig, WeatherProcess,
)
from .trips import TripConfig, TripGenerator, sample_departure_time
from .speed_matrix import (
    LiveSpeedStore, SpeedGridConfig, SpeedMatrixAccumulator,
    SpeedMatrixStore, edge_cell_indices,
)
from .dataset import (
    BuildInfo, DatasetSplit, TaxiDataset, chronological_split,
    dataset_fingerprint, split_indices, strip_trajectories,
    subsample_training,
)
from .cities import PRESETS, CityPreset, preset_network
from .pipeline import (
    BENCH_DATAGEN_SCHEMA, DatasetSpec, build, build_from_preset,
    validate_bench_datagen, validate_bench_datagen_file,
)
from .storage import open_dataset_dir
from .incidents import (
    Incident, IncidentConfig, IncidentProcess, IncidentTraffic,
)

__all__ = [
    "TrafficConfig", "TrafficModel",
    "N_WEATHER_TYPES", "WEATHER_TYPES", "WeatherConfig", "WeatherProcess",
    "TripConfig", "TripGenerator", "sample_departure_time",
    "LiveSpeedStore", "SpeedGridConfig", "SpeedMatrixAccumulator",
    "SpeedMatrixStore", "edge_cell_indices",
    "BuildInfo", "DatasetSplit", "TaxiDataset", "chronological_split",
    "dataset_fingerprint", "split_indices", "strip_trajectories",
    "subsample_training",
    "PRESETS", "CityPreset", "preset_network",
    "BENCH_DATAGEN_SCHEMA", "DatasetSpec", "build", "build_from_preset",
    "validate_bench_datagen", "validate_bench_datagen_file",
    "open_dataset_dir",
    "Incident", "IncidentConfig", "IncidentProcess", "IncidentTraffic",
]
