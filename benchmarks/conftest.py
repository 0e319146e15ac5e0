"""Shared helpers for the paper-reproduction benchmarks.

Each benchmark file regenerates one table or figure of the paper (see the
figure-by-figure index in ``docs/paper_mapping.md``).  Dataset sizes default to the scaled-down
configurations in :mod:`repro.bench.experiments` multiplied by
``REPRO_BENCH_SCALE`` (default 0.5) so the whole suite completes in minutes on
a laptop; set the environment variable to 1.0 (or higher) for larger runs.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the paper-style
tables printed by each benchmark.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.experiments import get_experiment, run_experiment
from repro.bench.report import format_breakdown, format_speedup_table, format_time_table
from repro.bench.runner import RunRecord

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def execute_experiment(exp_id: str, *, scale: float | None = None) -> list[RunRecord]:
    """Run a registered experiment at the benchmark scale."""
    return run_experiment(exp_id, scale=DEFAULT_SCALE if scale is None else scale)


def print_experiment_report(exp_id: str, records: list[RunRecord]) -> None:
    """Print the paper-style tables for one experiment's records."""
    spec = get_experiment(exp_id)
    vary = "eps" if spec.mode == "eps_sweep" else "num_points"
    print()
    print(f"=== {spec.paper_ref}: {spec.title} ===")
    print(f"    dataset={spec.dataset} minPts={spec.min_pts} "
          f"(paper sizes {spec.paper_sizes}, scaled sizes {spec.sizes}, "
          f"bench scale {DEFAULT_SCALE})")
    print(format_time_table(records, algorithms=list(spec.algorithms), vary=vary,
                            title="Simulated execution time"))
    targets = [a for a in spec.algorithms if a != spec.baseline]
    print(format_speedup_table(records, baseline=spec.baseline, targets=targets, vary=vary,
                               title=f"Speedup over {spec.baseline}"))
    if spec.mode == "breakdown":
        for record in records:
            if record.status == "ok":
                print(format_breakdown(record))


def ok_records(records: list[RunRecord], algorithm: str) -> list[RunRecord]:
    """Successful records of one algorithm, ordered as produced."""
    return [r for r in records if r.algorithm == algorithm and r.status == "ok"]


@pytest.fixture
def bench_scale() -> float:
    return DEFAULT_SCALE
