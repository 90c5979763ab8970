"""Tests for the chunked build pipeline and the typed DatasetSpec API.

The invariants here are the contract of the out-of-core path: chunked
builds (any chunk size, any worker count) are byte-identical to the
one-shot in-memory build, the on-disk dataset directory round-trips
through ``TaxiDataset.open`` without changing the fingerprint.
"""

import warnings

import numpy as np
import pytest

from repro.datagen import (
    BuildInfo, DatasetSpec, TaxiDataset, build, dataset_fingerprint,
    split_indices,
)
from repro.datagen.storage import DatasetDirWriter, open_dataset_dir, read_meta
from repro.obs import failed_gates, measure, new_bench

CITY = "mini-chengdu"
TRIPS = 90
DAYS = 3


@pytest.fixture(scope="module")
def oneshot():
    return build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS))


def _assert_records_equal(a, b):
    assert len(a.trips) == len(b.trips)
    for ta, tb in zip(a.trips, b.trips):
        assert ta.od.depart_time == tb.od.depart_time
        assert ta.od.origin_xy == tb.od.origin_xy
        assert ta.travel_time == tb.travel_time
        assert ta.trajectory.edge_ids == tb.trajectory.edge_ids
        assert ta.trajectory.ratio_start == tb.trajectory.ratio_start


class TestDatasetSpec:
    def test_frozen(self):
        spec = DatasetSpec(CITY)
        with pytest.raises(AttributeError):
            spec.city = "mini-xian"

    def test_rejects_bad_storage(self):
        with pytest.raises(ValueError, match="storage"):
            DatasetSpec(CITY, storage="tape")

    def test_disk_requires_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            DatasetSpec(CITY, storage="disk")

    def test_ram_forbids_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            DatasetSpec(CITY, out_dir="somewhere")

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            DatasetSpec(CITY, num_trips=0)
        with pytest.raises(ValueError):
            DatasetSpec(CITY, matcher_jobs=0)

    def test_unknown_city_raises_at_build(self):
        with pytest.raises(KeyError, match="atlantis"):
            build(DatasetSpec("atlantis", num_trips=10))


class TestBuildInfo:
    def test_round_trips_through_dict(self):
        info = BuildInfo(CITY, TRIPS, DAYS)
        assert BuildInfo.from_dict(info.to_dict()) == info

    def test_to_dict_matches_legacy_params(self):
        # Artifact manifests hashed these three keys for years of
        # fingerprints; defaults must not leak new keys in.
        info = BuildInfo(CITY, TRIPS, DAYS)
        assert info.to_dict() == {
            "city": CITY, "num_trips": TRIPS, "num_days": DAYS}

    def test_extras_survive_round_trip(self):
        info = BuildInfo(CITY, TRIPS, DAYS, chunk_size=64,
                         storage="disk", matcher_jobs=2)
        again = BuildInfo.from_dict(info.to_dict())
        assert again.chunk_size == 64
        assert again.storage == "disk"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            BuildInfo.from_dict({"city": CITY, "num_trips": 1,
                                 "num_days": 1, "color": "red"})

    def test_dataset_coerces_dict_build_params(self, oneshot):
        clone = TaxiDataset(
            name=oneshot.name, net=oneshot.net, trips=oneshot.trips,
            split=oneshot.split, slot_config=oneshot.slot_config,
            weather=oneshot.weather, traffic=oneshot.traffic,
            speed_store=oneshot.speed_store,
            horizon_seconds=oneshot.horizon_seconds,
            build_params={"city": CITY, "num_trips": TRIPS,
                          "num_days": DAYS})
        assert isinstance(clone.build_params, BuildInfo)


class TestChunkedParity:
    def test_chunked_ram_is_byte_identical(self, oneshot):
        chunked = build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                                    chunk_size=17))
        _assert_records_equal(oneshot, chunked)
        assert dataset_fingerprint(chunked) == dataset_fingerprint(oneshot)

    def test_disk_build_matches_ram(self, oneshot, tmp_path):
        out = str(tmp_path / "ds")
        disk = build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                                 chunk_size=32, storage="disk",
                                 out_dir=out))
        _assert_records_equal(oneshot, disk)
        assert dataset_fingerprint(disk) == dataset_fingerprint(oneshot)
        # Split boundaries agree too.
        assert len(disk.split.train) == len(oneshot.split.train)
        assert len(disk.split.validation) == len(oneshot.split.validation)

    def test_open_round_trips(self, oneshot, tmp_path):
        out = str(tmp_path / "ds")
        build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                          chunk_size=32, storage="disk", out_dir=out))
        reopened = TaxiDataset.open(out)
        _assert_records_equal(oneshot, reopened)
        assert dataset_fingerprint(reopened) == dataset_fingerprint(oneshot)
        assert read_meta(out)["fingerprint"] == dataset_fingerprint(oneshot)
        assert reopened.build_params.storage == "disk"

    def test_speed_matrix_identical(self, oneshot, tmp_path):
        out = str(tmp_path / "ds")
        disk = build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                                 chunk_size=32, storage="disk",
                                 out_dir=out))
        np.testing.assert_array_equal(
            np.asarray(disk.speed_store._matrices),
            oneshot.speed_store._matrices)

    def test_generate_chunks_underflow_raises(self, oneshot):
        from repro.datagen import TripConfig, TripGenerator
        gen = TripGenerator(
            oneshot.net, oneshot.traffic, oneshot.weather, seed=3,
            config=TripConfig(min_trip_edges=10_000))
        with pytest.raises(RuntimeError, match="could only generate"):
            list(gen.generate_chunks(5, chunk_size=2))


class TestRematchSpan:
    def test_matching_runs_inside_match_span(self, monkeypatch):
        from repro.mapmatching import batch
        from repro.obs import Tracer
        tracer = Tracer()
        original = batch.match_many
        open_spans = []

        def spy(matcher, trajs, jobs=1):
            open_spans.append(tracer.current().name)
            return original(matcher, trajs, jobs=jobs)

        monkeypatch.setattr(batch, "match_many", spy)
        build(DatasetSpec(CITY, num_trips=12, num_days=1, chunk_size=6,
                          rematch=True), tracer=tracer)
        assert open_spans == ["datagen.match", "datagen.match"]
        spans = [s for s in _walk(tracer.to_dict()["spans"])
                 if s["name"] == "datagen.match"]
        assert [s["attrs"]["trips"] for s in spans] == [6, 6]
        assert all(0 <= s["attrs"]["matched"] <= 6 for s in spans)


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span["children"])


class TestSplitIndices:
    def test_matches_legacy_ratios(self):
        train_end, val_end = split_indices(100)
        assert (train_end, val_end) == (68, 80)

    def test_tiny_dataset_keeps_all_splits_nonempty(self):
        for n in (4, 5, 10):
            train_end, val_end = split_indices(n)
            assert 0 < train_end < val_end < n


class TestStorageErrors:
    def test_open_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_dataset_dir(str(tmp_path / "nope"))

    def test_writer_rejects_stripped_trips(self, oneshot, tmp_path):
        from repro.datagen import strip_trajectories
        writer = DatasetDirWriter(str(tmp_path / "ds"))
        try:
            with pytest.raises(ValueError, match="trajectory and raw GPS"):
                writer.write_chunk(strip_trajectories(oneshot.trips[:2]))
        finally:
            writer.close_streams()


class TestBenchSchema:
    """BENCH_datagen.json in the ``repro.bench/v1`` envelope: the
    datagen bench's floors, RSS ceiling and parity checks are gates that
    ``failed_gates`` enforces."""

    def _payload(self):
        return new_bench(
            "datagen_pipeline",
            {"city": "mega-chengdu", "trips": 4000, "days": 2,
             "chunk_size": 512, "viterbi_trips": 40, "pool_jobs": 4,
             "pool_mode": "stall"},
            {"throughput.trips_per_s": measure(120.0, "1/s", floor=40.0),
             "throughput.build_s": measure(33.0, "s"),
             "memory.ram_peak_delta_kb": measure(90_000, "KB"),
             "memory.disk_peak_delta_kb": measure(30_000, "KB"),
             "memory.ratio": measure(0.33, "ratio", ceiling=0.5),
             "viterbi.reference_s": measure(1.6, "s"),
             "viterbi.vectorized_s": measure(0.4, "s"),
             "viterbi.speedup": measure(4.0, "x", floor=3.0),
             "parallel.serial_s": measure(8.0, "s"),
             "parallel.parallel_s": measure(2.6, "s"),
             "parallel.speedup": measure(3.1, "x", floor=2.0)},
            checks={"paths_identical": True, "fingerprint_equal": True})

    def test_valid_payload_passes(self):
        assert failed_gates(self._payload()) == []

    def test_floor_violations_fail_closed(self):
        payload = self._payload()
        payload["measurements"]["viterbi.speedup"]["value"] = 2.0
        assert failed_gates(payload) == [
            "viterbi.speedup 2 below floor 3"]

    def test_memory_ceiling_enforced(self):
        payload = self._payload()
        payload["measurements"]["memory.ratio"]["value"] = 0.9
        assert failed_gates(payload) == [
            "memory.ratio 0.9 above ceiling 0.5"]

    def test_fingerprint_divergence_fails(self):
        payload = self._payload()
        payload["checks"]["fingerprint_equal"] = False
        assert failed_gates(payload) == ["check fingerprint_equal is false"]

    def test_wrong_schema_fails(self):
        payload = self._payload()
        payload["schema"] = "repro.bench.datagen/v0"
        with pytest.raises(ValueError, match="schema"):
            failed_gates(payload)
