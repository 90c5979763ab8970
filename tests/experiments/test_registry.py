"""Run registry: durable records, streamed metrics, queries."""

import json
import os

import pytest

from repro.experiments import (
    RegistryError, RunRegistry, RunSpec, config_hash, execute_run,
    make_run_id,
)


class TestIdentity:
    def test_config_hash_deterministic_and_sensitive(self, tiny_config):
        assert config_hash(tiny_config) == config_hash(tiny_config)
        changed = tiny_config.with_overrides(aux_weight=0.11)
        assert config_hash(tiny_config) != config_hash(changed)

    def test_dataset_params_change_the_hash(self, tiny_config):
        assert config_hash(tiny_config, {"city": "a"}) != \
            config_hash(tiny_config, {"city": "b"})

    def test_run_id_shape(self, tiny_config):
        run_id = make_run_id("mini-xian", tiny_config, 7)
        assert run_id.startswith("mini-xian-")
        assert run_id.endswith("-s7")


class TestRecords:
    def test_create_run_writes_record_and_config(self, tiny_config,
                                                 tmp_path):
        registry = RunRegistry(str(tmp_path))
        run = registry.create_run("mini-chengdu", tiny_config, 0,
                                  dataset_params={"city": "mini-chengdu"})
        assert os.path.exists(os.path.join(run.directory, "run.json"))
        assert registry.load_config(run.run_id) == tiny_config
        fetched = registry.get(run.run_id)
        assert fetched.record.status == "running"
        assert fetched.record.config_hash == run.record.config_hash

    def _rewrite_config(self, run, **extra):
        path = os.path.join(run.directory, "config.json")
        with open(path) as handle:
            payload = json.load(handle)
        payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)

    def test_load_config_drops_legacy_engine_keys(self, tiny_config,
                                                  tmp_path):
        registry = RunRegistry(str(tmp_path))
        run = registry.create_run("mini-chengdu", tiny_config, 0)
        self._rewrite_config(run, nn_engine="reference",
                             embed_engine="reference")
        assert registry.load_config(run.run_id) == tiny_config

    def test_load_config_rejects_unknown_field(self, tiny_config,
                                               tmp_path):
        registry = RunRegistry(str(tmp_path))
        run = registry.create_run("mini-chengdu", tiny_config, 0)
        self._rewrite_config(run, bogus=1)
        with pytest.raises(RegistryError, match="unknown fields"):
            registry.load_config(run.run_id)

    def test_metrics_stream_appends_jsonl(self, tiny_config, tmp_path):
        registry = RunRegistry(str(tmp_path))
        run = registry.create_run("mini-chengdu", tiny_config, 0)
        run.append_metric(10, 5.5, 0.01)
        run.append_metric(20, 4.5, 0.002, note="decayed")
        rows = run.metrics_history()
        assert [r["step"] for r in rows] == [10, 20]
        assert rows[1]["note"] == "decayed"
        with open(run.metrics_path) as handle:
            assert len(handle.readlines()) == 2

    def test_mark_completed_and_failed(self, tiny_config, tmp_path):
        registry = RunRegistry(str(tmp_path))
        good = registry.create_run("mini-chengdu", tiny_config, 0)
        good.mark_completed({"test_mae": 3.0})
        bad = registry.create_run("mini-chengdu", tiny_config, 1)
        bad.mark_failed("boom")
        assert registry.get(good.run_id).record.status == "completed"
        failed = registry.get(bad.run_id).record
        assert failed.status == "failed"
        assert failed.error == "boom"

    def test_unknown_run_raises(self, tmp_path):
        with pytest.raises(RegistryError):
            RunRegistry(str(tmp_path)).get("nope")

    def test_corrupt_record_raises(self, tiny_config, tmp_path):
        registry = RunRegistry(str(tmp_path))
        run = registry.create_run("mini-chengdu", tiny_config, 0)
        with open(os.path.join(run.directory, "run.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(RegistryError):
            registry.get(run.run_id)


class TestQueries:
    def test_list_and_best(self, tiny_config, tmp_path):
        registry = RunRegistry(str(tmp_path))
        for seed, mae in [(0, 5.0), (1, 3.0), (2, 4.0)]:
            run = registry.create_run("mini-chengdu", tiny_config, seed)
            run.mark_completed({"test_mae": mae})
        still_running = registry.create_run("mini-chengdu", tiny_config, 9)
        assert len(registry.list_runs()) == 4
        assert len(registry.list_runs(status="completed")) == 3
        assert registry.best_run().record.seed == 1
        assert still_running.run_id in \
            [r.run_id for r in registry.list_runs(status="running")]


class TestExecuteRunIntegration:
    def test_execute_run_registers_everything(self, tiny_config,
                                              tiny_dataset, tmp_path):
        registry = RunRegistry(str(tmp_path))
        spec = RunSpec(city="mini-chengdu", config=tiny_config, seed=0,
                       trips=60, days=7, epochs=1, eval_every=2,
                       checkpoint_every=2)
        result = execute_run(spec, registry=registry,
                             dataset=tiny_dataset)
        run = registry.get(result.run_id)
        assert run.record.status == "completed"
        assert run.record.dataset_fingerprint
        assert run.record.metrics["test_mae"] == \
            result.metrics["test_mae"]
        # Metrics streamed per evaluation, report written, artifact saved.
        assert run.metrics_history()
        assert run.read_report()["run_id"] == result.run_id
        manifest_path = os.path.join(run.artifact_dir, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["provenance"]["run_id"] == result.run_id
        # Checkpoints were written under the run directory.
        assert os.listdir(run.checkpoints_dir)

    def test_execute_run_records_failure(self, tiny_config, tiny_dataset,
                                         tmp_path, monkeypatch):
        registry = RunRegistry(str(tmp_path))
        spec = RunSpec(city="mini-chengdu", config=tiny_config, seed=0,
                       trips=60, days=7, epochs=1, eval_every=0)

        def explode(*args, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr("repro.experiments.runner.build_deepod",
                            explode)
        with pytest.raises(RuntimeError):
            execute_run(spec, registry=registry, dataset=tiny_dataset)
        run_id = spec_run_id(registry, spec)
        record = registry.get(run_id).record
        assert record.status == "failed"
        assert "injected failure" in record.error


def spec_run_id(registry, spec):
    return make_run_id(spec.city, spec.effective_config(), spec.seed,
                       spec.dataset_params)
