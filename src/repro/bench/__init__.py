"""Benchmark harness: experiment registry, sweep runner and report formatting.

One registered experiment per table/figure of the paper's evaluation section;
see ``docs/paper_mapping.md`` for the figure-by-figure index, and run
``rt-dbscan experiment <id>`` for one experiment's paper-style tables.
"""

from .experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    get_experiment,
    list_experiments,
    run_approx_experiment,
    run_experiment,
)
from .report import (
    format_agreement_table,
    format_breakdown,
    format_records,
    format_speedup_table,
    format_time_table,
)
from .runner import RunRecord, run_single, run_sweep, speedup_series

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "run_approx_experiment",
    "format_agreement_table",
    "format_breakdown",
    "format_records",
    "format_speedup_table",
    "format_time_table",
    "RunRecord",
    "run_single",
    "run_sweep",
    "speedup_series",
]
