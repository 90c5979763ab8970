"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.city == "mini-chengdu"
        assert args.trips == 1000

    def test_unknown_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--city", "atlantis"])

    def test_compare_methods_list(self):
        args = build_parser().parse_args(
            ["compare", "--methods", "LR", "GBM"])
        assert args.methods == ["LR", "GBM"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--artifact", "m/"])
        assert args.artifact == "m/"
        assert args.port == 8321
        assert args.max_batch == 128
        assert not args.stdin

    def test_serve_requires_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestCommands:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--trips", "40", "--days", "7"]) == 0
        out = capsys.readouterr().out
        assert "num_orders" in out
        assert "40.00" in out

    def test_train_runs_and_saves(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        code = main(["train", "--trips", "60", "--days", "7",
                     "--epochs", "1", "--save", path,
                     "--eval-every", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "test MAPE" in out
        import os
        assert os.path.exists(path)

    def test_compare_runs(self, capsys):
        code = main(["compare", "--trips", "60", "--days", "7",
                     "--epochs", "1", "--methods", "LR", "TEMP"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LR" in out and "TEMP" in out

    def test_compare_writes_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        code = main(["compare", "--trips", "60", "--days", "7",
                     "--epochs", "1", "--methods", "LR",
                     "--out", out_path])
        assert code == 0
        from repro.eval import load_report
        report = load_report(out_path)
        assert report["metadata"]["city"] == "mini-chengdu"
        assert "LR" in report["methods"]

    def test_unknown_method_exits(self):
        with pytest.raises(SystemExit):
            main(["compare", "--trips", "60", "--days", "7",
                  "--methods", "SVM"])


class TestExpCommands:
    def test_exp_parser_defaults(self):
        args = build_parser().parse_args(["exp", "sweep"])
        assert args.runs_dir == "runs"
        assert args.jobs == 1
        assert args.seeds == [0]

    def test_exp_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp"])

    def test_exp_promote_requires_deploy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp", "promote"])

    def test_exp_grid_parsing_rejects_bad_entry(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["exp", "sweep", "--grid", "no-equals-sign",
                  "--runs-dir", str(tmp_path / "runs")])

    def test_exp_sweep_parallel_writes_json(self, tmp_path, capsys):
        out_path = str(tmp_path / "sweep.json")
        code = main(["exp", "sweep", "--trips", "60", "--days", "7",
                     "--epochs", "1", "--eval-every", "0",
                     "--grid", "aux_weight=0.1,0.5", "--jobs", "2",
                     "--runs-dir", str(tmp_path / "runs"),
                     "--out", out_path])
        assert code == 0
        assert "MAPE" in capsys.readouterr().out
        import json
        with open(out_path) as handle:
            payload = json.load(handle)
        assert payload["num_points"] == 2
        assert payload["num_failed"] == 0
        weights = [r["overrides"]["aux_weight"]
                   for r in payload["results"]]
        assert weights == [0.1, 0.5]

    def test_exp_pipeline_end_to_end(self, tmp_path, capsys):
        """run -> list -> promote against a tiny config, exercising the
        registry and deployment layout through the CLI."""
        runs_dir = str(tmp_path / "runs")
        deploy = str(tmp_path / "deploy")
        tiny = ["--trips", "60", "--days", "7", "--epochs", "1",
                "--runs-dir", runs_dir]
        assert main(["exp", "run", *tiny, "--eval-every", "2",
                     "--checkpoint-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "test MAE" in out and "artifact" in out

        assert main(["exp", "list", "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "completed" in out and "best completed run" in out

        assert main(["exp", "promote", "--runs-dir", runs_dir,
                     "--deploy", deploy]) == 0
        out = capsys.readouterr().out
        assert "promoted ->" in out
        import os
        assert os.path.islink(os.path.join(deploy, "current"))

    def test_exp_list_empty_registry(self, tmp_path, capsys):
        assert main(["exp", "list",
                     "--runs-dir", str(tmp_path / "none")]) == 0
        assert "no runs recorded" in capsys.readouterr().out
