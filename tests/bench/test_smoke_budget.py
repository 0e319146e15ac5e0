"""Tests for the benchmark runner script's smoke wall-clock budget."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", ROOT / "scripts" / "run_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSmokeBudget:
    def _run_smoke(self, run_bench, tmp_path, budget: dict | None):
        out = tmp_path / "BENCH_smoke.json"
        args = [
            "--profile", "smoke", "--experiments", "sec6c", "--streaming",
            "--scale", "0.1", "--out", str(out),
        ]
        if budget is not None:
            budget_file = tmp_path / "budget.json"
            budget_file.write_text(json.dumps(budget))
            args += ["--budget-file", str(budget_file)]
        return run_bench.main(args), out

    def test_within_budget_returns_zero(self, run_bench, tmp_path):
        rc, out = self._run_smoke(
            run_bench, tmp_path,
            {"smoke_seconds_seed": 10_000, "smoke_budget_factor": 2.0},
        )
        assert rc == 0
        assert out.exists()

    def test_exceeded_budget_returns_three(self, run_bench, tmp_path):
        rc, out = self._run_smoke(
            run_bench, tmp_path,
            {"smoke_seconds_seed": 0.000001, "smoke_budget_factor": 2.0},
        )
        assert rc == 3
        assert out.exists()  # the snapshot is still written for inspection
