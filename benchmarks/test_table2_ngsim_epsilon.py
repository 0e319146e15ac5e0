"""Table II / Figure 8a — NGSIM raw times and speedup on varying ε.

Paper shape: NGSIM is extremely dense but the swept ε values are so small
that no clusters form at minPts = 100; execution times are essentially flat
across ε for both algorithms, and RT-DBSCAN wins by a very large margin
(~2500x on the authors' hardware — a margin attributed to opaque hardware BVH
behaviour; the analytic cost model reproduces the flatness and the zero-
cluster outcome, and the win direction once the pipeline setup is amortised,
but not that magnitude; see ``docs/paper_mapping.md``).
"""

from __future__ import annotations

import numpy as np
from conftest import execute_experiment, ok_records, print_experiment_report


def test_table2_ngsim_epsilon_sweep(benchmark):
    records = benchmark.pedantic(
        lambda: execute_experiment("table2"), rounds=1, iterations=1
    )
    print_experiment_report("table2", records)

    rt = ok_records(records, "rt-dbscan")
    fdb = ok_records(records, "fdbscan")
    assert len(rt) == len(fdb) == 5

    # The zero-cluster regime of the paper.
    assert all(r.num_clusters == 0 for r in rt + fdb)

    # Times are flat across eps (within 20%) because the dataset stays in the
    # same "no neighbours found" regime for every swept eps.
    for series in (rt, fdb):
        times = np.array([r.simulated_seconds for r in series])
        assert times.max() <= 1.2 * times.min()
