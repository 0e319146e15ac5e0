"""Benchmark runner.

Runs a named algorithm on a point set with given (ε, minPts), catches the
simulated out-of-memory condition the way the paper reports it for the
baselines, and returns a flat :class:`RunRecord` the report formatters and
the pytest benchmarks consume.

Algorithms are resolved from the registry in :mod:`repro.api.registry` — the
hand-written factory table this module used to keep is gone.  Names may use
the ``"algo@backend"`` spelling (e.g. ``"rt-dbscan@grid"``) to pin a
neighbour backend, which is how the backend-ablation experiment labels its
columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..api.spec import ClustererSpec
from ..dbscan.params import DBSCANResult
from ..native import dispatch as native_dispatch
from ..partition.executor import ParallelMap, as_parallel_map
from ..perf.cost_model import DeviceCostModel
from ..perf.memory import DeviceMemoryError
from ..rtcore.device import RTDevice

__all__ = ["RunRecord", "fit_single", "run_single", "run_sweep", "speedup_series"]


@dataclass
class RunRecord:
    """One (algorithm, dataset configuration) execution."""

    algorithm: str
    dataset: str
    num_points: int
    eps: float
    min_pts: int
    status: str = "ok"  # "ok" | "oom" | "error"
    simulated_seconds: float = float("nan")
    wall_seconds: float = float("nan")
    num_clusters: int = -1
    num_noise: int = -1
    num_core: int = -1
    #: which kernel tier executed the fit: "native" (compiled C hot loops)
    #: or "numpy"; taken from the result's extra block when the algorithm
    #: records it, otherwise from the dispatcher's state at fit time.
    kernel_tier: str = ""
    breakdown: dict = field(default_factory=dict)
    error: str = ""
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "num_points": self.num_points,
            "eps": self.eps,
            "min_pts": self.min_pts,
            "status": self.status,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "num_clusters": self.num_clusters,
            "num_noise": self.num_noise,
            "num_core": self.num_core,
            "kernel_tier": self.kernel_tier,
            "breakdown": dict(self.breakdown),
            "error": self.error,
            "extra": dict(self.extra),
        }


def run_single(algorithm: str, points: np.ndarray, eps: float, min_pts: int,
               **kwargs) -> RunRecord:
    """Run one algorithm on one configuration and return its record.

    The record of :func:`fit_single`, which takes the same arguments.
    """
    return fit_single(algorithm, points, eps, min_pts, **kwargs)[0]


def fit_single(
    algorithm: str,
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    dataset: str = "unknown",
    cost_model: DeviceCostModel | None = None,
    backend: str | None = None,
    **kwargs,
) -> tuple[RunRecord, DBSCANResult | None]:
    """Run one algorithm on one configuration; return its record and result.

    ``algorithm`` is resolved from the registry (``KeyError`` lists the
    available names); ``backend`` pins a neighbour backend for algorithms
    that support one, equivalent to the ``"algo@backend"`` spelling.

    Out-of-memory conditions on the simulated device are reported as
    ``status="oom"`` with no result rather than raised, because the paper
    treats them as data points ("G-DBSCAN and CUDA-DClust+ ran out of memory
    beyond 100 K points"), not as failures of the harness.
    """
    points = np.asarray(points, dtype=np.float64)
    record = RunRecord(
        algorithm=algorithm,
        dataset=dataset,
        num_points=points.shape[0],
        eps=float(eps),
        min_pts=int(min_pts),
    )
    spec = ClustererSpec(algo=algorithm, eps=float(eps), min_pts=int(min_pts),
                         backend=backend)
    entry, backend = spec.resolve()
    if backend is not None:
        kwargs.setdefault("backend", backend)
        record.extra["backend"] = backend

    device = RTDevice(cost_model=cost_model) if cost_model is not None else RTDevice()
    clusterer = entry.factory(eps=eps, min_pts=min_pts, device=device, **kwargs)
    start = time.perf_counter()
    try:
        result = clusterer.fit(points)
    except DeviceMemoryError as exc:
        record.status = "oom"
        record.error = str(exc)
        record.wall_seconds = time.perf_counter() - start
        return record, None
    record.wall_seconds = time.perf_counter() - start
    _fill_from_result(record, result)
    return record, result


def _fill_from_result(record: RunRecord, result: DBSCANResult) -> None:
    record.num_clusters = result.num_clusters
    record.num_noise = result.num_noise
    record.num_core = int(result.core_mask.sum())
    record.kernel_tier = result.extra.get("kernel_tier") or native_dispatch.active_tier()
    if result.report is not None:
        record.simulated_seconds = result.report.total_simulated_seconds
        record.breakdown = result.report.breakdown()
    else:
        # Uninstrumented reference implementations (the sequential oracle)
        # carry no simulated-time report; fall back to wall-clock time.
        record.simulated_seconds = record.wall_seconds


def _run_sweep_job(job: tuple) -> RunRecord:
    """One sweep cell."""
    algo, pts, eps, min_pts, label, cost_model, kwargs = job
    return run_single(algo, pts, eps, min_pts, dataset=label, cost_model=cost_model, **kwargs)


def run_sweep(
    algorithms: list[str],
    points_by_config: list[tuple[str, np.ndarray, float, int]],
    *,
    cost_model: DeviceCostModel | None = None,
    workers: int | ParallelMap | None = None,
    **kwargs,
) -> list[RunRecord]:
    """Run every algorithm on every ``(label, points, eps, min_pts)`` config.

    ``workers`` fans the independent (config, algorithm) cells out over the
    shared :class:`~repro.partition.executor.ParallelMap` executor (an
    existing executor is also accepted).  The default stays serial so
    wall-clock timings remain deterministic; simulated timings are unaffected
    by the strategy because every cell runs on its own simulated device.
    Records come back in the same order as the serial loop produced them.
    """
    executor = as_parallel_map(workers)
    jobs = [
        (algo, pts, eps, min_pts, label, cost_model, kwargs)
        for label, pts, eps, min_pts in points_by_config
        for algo in algorithms
    ]
    return executor.map(_run_sweep_job, jobs)


def speedup_series(
    records: list[RunRecord], *, baseline: str, target: str, key: str = "eps"
) -> list[dict]:
    """Per-configuration speedup of ``target`` over ``baseline``.

    Configurations are matched on ``(dataset, num_points, eps, min_pts)``;
    the ``key`` argument selects which field labels the series (``"eps"`` or
    ``"num_points"``).  OOM baseline runs yield ``inf`` speedup, OOM target
    runs yield 0.0, matching how the paper plots these cases.
    """
    def config_key(r: RunRecord):
        return (r.dataset, r.num_points, r.eps, r.min_pts)

    base = {config_key(r): r for r in records if r.algorithm == baseline}
    out = []
    for r in records:
        if r.algorithm != target:
            continue
        b = base.get(config_key(r))
        if b is None:
            continue
        if b.status == "oom" and r.status == "oom":
            speedup = float("nan")
        elif b.status == "oom":
            speedup = float("inf")
        elif r.status == "oom":
            speedup = 0.0
        else:
            speedup = b.simulated_seconds / r.simulated_seconds if r.simulated_seconds else float("inf")
        out.append(
            {
                key: getattr(r, key) if hasattr(r, key) else r.extra.get(key),
                "dataset": r.dataset,
                "baseline_seconds": b.simulated_seconds,
                "target_seconds": r.simulated_seconds,
                "speedup": speedup,
                "baseline_status": b.status,
                "target_status": r.status,
            }
        )
    return out
