"""CLI surface of the cluster: ``loadtest`` and ``serve --workers``."""

import json

import pytest

from repro.cli import main


class TestLoadtestCLI:
    def test_writes_valid_bench_and_metrics(self, artifact_dir, tmp_path,
                                            capsys):
        bench_path = tmp_path / "bench.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["loadtest", "--artifact", artifact_dir,
                     "--workers", "2", "--queries", "32", "--rps", "200",
                     "--stall-ms", "10", "--floor", "1.1",
                     "--out", str(bench_path),
                     "--metrics-out", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "overlap (2 workers" in out
        assert "open loop @ 200 rps" in out

        from repro.obs import failed_gates, load_bench, validate_metrics_file
        from repro.serving import read_manifest
        bench = load_bench(str(bench_path))
        assert failed_gates(bench) == []
        assert bench["workload"]["workers"] == 2
        assert bench["measurements"]["open_loop.failed"]["value"] == 0
        # The artifact is named by its dataset fingerprint, not a path.
        assert bench["workload"]["artifact_fingerprint"] == \
            read_manifest(artifact_dir)["dataset"]["fingerprint"]
        assert str(tmp_path.parent) not in bench_path.read_text()
        snap = validate_metrics_file(str(metrics_path))
        assert snap["histograms"]["loadtest.latency_ms"]["count"] == 32

    def test_assert_floor_failure_exits_nonzero(self, artifact_dir,
                                                capsys):
        # An impossible floor: the harness must report and exit 1, not
        # silently pass.
        assert main(["loadtest", "--artifact", artifact_dir,
                     "--workers", "2", "--queries", "16", "--rps", "500",
                     "--stall-ms", "5", "--floor", "1000",
                     "--assert-floor"]) == 1
        assert "below" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", [
        {"measurements": {"p99": {"value": 9.0, "ceiling": 5.0}}},
        {"checks": {"parity": False}},
    ], ids=["ceiling breach", "false check"])
    def test_assert_floor_fails_on_any_missed_gate(self, monkeypatch,
                                                   capsys, gate):
        from repro.obs import measure, new_bench
        from repro.serving import cluster
        measurements = {
            name: measure(1.0) for name in (
                "overlap.single_qps", "overlap.cluster_qps",
                "overlap.speedup", "model.single_qps",
                "model.cluster_qps", "model.speedup",
                "open_loop.latency_ms.p50", "open_loop.latency_ms.p95",
                "open_loop.latency_ms.p99", "open_loop.shed",
                "open_loop.failed")}
        measurements.update(gate.get("measurements", {}))
        doc = new_bench("serving_load", {}, measurements,
                        checks=gate.get("checks"))
        monkeypatch.setattr(cluster, "run_load_test",
                            lambda *args, **kwargs: doc)
        assert main(["loadtest", "--artifact", "unused",
                     "--assert-floor"]) == 1
        err = capsys.readouterr().err
        assert "above ceiling" in err or "check parity is false" in err

    def test_rejects_bad_artifact(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["loadtest", "--artifact", str(tmp_path / "nope")])


class TestServeWorkersCLI:
    def test_query_through_cluster(self, artifact_dir, serving_dataset,
                                   capsys):
        trip = serving_dataset.split.test[0]
        query = json.dumps({"origin": list(trip.od.origin_xy),
                            "destination": list(trip.od.destination_xy),
                            "depart_time": trip.od.depart_time})
        assert main(["serve", "--artifact", artifact_dir,
                     "--workers", "2", "--query", query]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["source"] == "model"
        assert payload["seconds"] > 0

    def test_cluster_answers_match_single_process(self, artifact_dir,
                                                  serving_dataset,
                                                  capsys):
        trip = serving_dataset.split.test[1]
        query = json.dumps({"origin": list(trip.od.origin_xy),
                            "destination": list(trip.od.destination_xy),
                            "depart_time": trip.od.depart_time})
        assert main(["serve", "--artifact", artifact_dir,
                     "--query", query]) == 0
        single = json.loads(capsys.readouterr().out.strip())
        assert main(["serve", "--artifact", artifact_dir,
                     "--workers", "3", "--query", query]) == 0
        clustered = json.loads(capsys.readouterr().out.strip())
        assert clustered == single
