"""Tests for the benchmark harness (runner, experiments, reports) and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.registry import list_algorithms, resolve_algorithm
from repro.bench.experiments import EXPERIMENTS, get_experiment, list_experiments, run_experiment
from repro.bench.report import (
    format_breakdown,
    format_records,
    format_speedup_table,
    format_time_table,
)
from repro.bench.runner import RunRecord, fit_single, run_single, run_sweep, speedup_series
from repro.cli import build_parser, main
from repro.data.synthetic import make_blobs
from repro.perf.cost_model import DeviceCostModel


@pytest.fixture(scope="module")
def small_blobs():
    pts, _ = make_blobs(400, centers=3, std=0.2, seed=0)
    return pts


class TestRunner:
    def test_run_single_rt(self, small_blobs):
        rec = run_single("rt-dbscan", small_blobs, 0.4, 5, dataset="blobs")
        assert rec.status == "ok"
        assert rec.num_clusters == 3
        assert rec.simulated_seconds > 0
        assert "bvh_build" in rec.breakdown

    def test_run_single_classic(self, small_blobs):
        rec = run_single("classic", small_blobs, 0.4, 5)
        assert rec.status == "ok"
        assert rec.num_clusters == 3

    def test_unknown_algorithm_raises(self, small_blobs):
        with pytest.raises(KeyError):
            run_single("hdbscan", small_blobs, 0.4, 5)

    def test_oom_reported_not_raised(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(100_000, 2))
        rec = run_single("g-dbscan", pts, 0.01, 5, dataset="big")
        assert rec.status == "oom"
        assert "memory" in rec.error.lower()

    def test_fit_single_returns_the_recorded_fit(self, small_blobs):
        rec, result = fit_single("rt-dbscan", small_blobs, 0.4, 5, dataset="blobs")
        assert rec.status == "ok"
        assert rec.num_clusters == result.num_clusters == 3
        assert rec.num_noise == result.num_noise
        assert rec.num_core == int(result.core_mask.sum())
        assert rec.simulated_seconds == result.report.total_simulated_seconds
        again = run_single("rt-dbscan", small_blobs, 0.4, 5, dataset="blobs")
        again.wall_seconds = rec.wall_seconds
        assert again.as_dict() == rec.as_dict()

    def test_fit_single_oom_has_no_result(self, small_blobs):
        tiny = DeviceCostModel(device_memory_bytes=1024)
        rec, result = fit_single("g-dbscan", small_blobs, 0.4, 5, cost_model=tiny)
        assert rec.status == "oom"
        assert "memory" in rec.error.lower()
        assert result is None

    def test_run_sweep_covers_all_configs(self, small_blobs):
        records = run_sweep(
            ["rt-dbscan", "fdbscan"],
            [("blobs", small_blobs, 0.4, 5), ("blobs", small_blobs, 0.6, 5)],
        )
        assert len(records) == 4
        assert {r.algorithm for r in records} == {"rt-dbscan", "fdbscan"}

    def test_all_registered_algorithms_run(self, small_blobs):
        for name in list_algorithms():
            rec = run_single(name, small_blobs, 0.4, 5)
            assert rec.status == "ok", name

    def test_speedup_series(self, small_blobs):
        records = run_sweep(
            ["rt-dbscan", "fdbscan"],
            [("blobs", small_blobs, 0.4, 5), ("blobs", small_blobs, 0.8, 5)],
        )
        series = speedup_series(records, baseline="fdbscan", target="rt-dbscan", key="eps")
        assert len(series) == 2
        assert all(s["speedup"] > 0 for s in series)

    def test_record_as_dict(self, small_blobs):
        rec = run_single("fdbscan", small_blobs, 0.4, 5)
        d = rec.as_dict()
        assert d["algorithm"] == "fdbscan"
        assert isinstance(d["breakdown"], dict)


class TestExperimentRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "fig4", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig7",
            "table1", "table2", "table3", "fig9a", "fig9b", "fig9c", "sec5d", "sec6c",
        }
        # Beyond-paper experiments (e.g. the backend ablation) may extend the
        # registry; every paper artifact must stay present.
        assert expected <= set(list_experiments())

    def test_specs_reference_known_algorithms(self):
        for spec in EXPERIMENTS.values():
            for algo in spec.algorithms:
                resolve_algorithm(algo)  # raises for an unknown name
            assert spec.baseline in spec.algorithms

    def test_specs_have_paper_metadata(self):
        for spec in EXPERIMENTS.values():
            assert spec.paper_ref
            assert spec.paper_sizes
            assert spec.description

    def test_get_experiment_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_build_configs_eps_sweep(self):
        spec = get_experiment("fig5a")
        configs = spec.build_configs(scale=0.02)
        assert len(configs) == len(spec.eps_factors)
        eps_values = [c[2] for c in configs]
        assert eps_values == sorted(eps_values)

    def test_build_configs_size_sweep(self):
        spec = get_experiment("fig6a")
        configs = spec.build_configs(scale=0.05)
        sizes = [len(c[1]) for c in configs]
        assert sizes == sorted(sizes)
        # All sizes share the same eps.
        assert len({c[2] for c in configs}) == 1

    def test_run_experiment_tiny_scale(self):
        records = run_experiment("fig6c", scale=0.02)
        assert all(r.status == "ok" for r in records)
        assert {r.algorithm for r in records} == {"fdbscan", "rt-dbscan"}

    def test_ngsim_experiment_zero_clusters(self):
        records = run_experiment("table2", scale=0.05)
        assert all(r.num_clusters == 0 for r in records if r.status == "ok")


class TestReports:
    @pytest.fixture(scope="class")
    def records(self):
        pts, _ = make_blobs(300, centers=3, std=0.2, seed=1)
        return run_sweep(
            ["fdbscan", "rt-dbscan"],
            [("blobs", pts, 0.4, 5), ("blobs", pts, 0.6, 5)],
        )

    def test_format_records_lists_all_runs(self, records):
        text = format_records(records)
        assert text.count("rt-dbscan") == 2
        assert "dataset" in text

    def test_format_time_table(self, records):
        text = format_time_table(records, algorithms=["fdbscan", "rt-dbscan"], vary="eps")
        assert "fdbscan" in text and "rt-dbscan" in text
        assert len(text.splitlines()) >= 4

    def test_format_speedup_table(self, records):
        text = format_speedup_table(
            records, baseline="fdbscan", targets=["rt-dbscan"], vary="eps"
        )
        assert "x" in text

    def test_format_breakdown(self, records):
        rec = [r for r in records if r.algorithm == "rt-dbscan"][0]
        text = format_breakdown(rec, title="Section V-D")
        assert "bvh_build" in text
        assert "total" in text

    def test_oom_rendered_in_time_table(self):
        rec = RunRecord(
            algorithm="g-dbscan", dataset="x", num_points=10, eps=0.1, min_pts=5, status="oom"
        )
        text = format_time_table([rec], algorithms=["g-dbscan"], vary="num_points")
        assert "OOM" in text


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rt-dbscan" in out
        assert "fig5c" in out

    def test_cluster_command_on_synthetic(self, capsys):
        code = main([
            "cluster", "--dataset", "blobs", "--num-points", "400",
            "--eps", "0.3", "--min-pts", "5", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["algorithm"] == "rt-dbscan"

    def test_cluster_command_csv_input(self, tmp_path, capsys):
        pts, _ = make_blobs(200, centers=2, std=0.1, seed=3)
        csv = tmp_path / "points.csv"
        np.savetxt(csv, pts, delimiter=",")
        out_file = tmp_path / "labels.txt"
        code = main([
            "cluster", "--input", str(csv), "--eps", "0.3", "--min-pts", "5",
            "--algorithm", "fdbscan", "--output", str(out_file),
        ])
        assert code == 0
        labels = np.loadtxt(out_file)
        assert labels.shape == (200,)
        assert set(np.unique(labels)) <= {-1.0, 0.0, 1.0}

    def test_experiment_command_json(self, capsys):
        code = main(["experiment", "sec6c", "--scale", "0.2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {r["algorithm"] for r in payload} == {"rt-dbscan", "rt-dbscan-triangles"}

    def test_experiment_command_table_output(self, capsys):
        code = main(["experiment", "fig6a", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Speedup over fdbscan" in out
