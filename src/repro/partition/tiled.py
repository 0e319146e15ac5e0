"""Tiled RT-DBSCAN: shard-local Algorithm 3 plus halo boundary merge.

:class:`TiledRTDBSCAN` is the scale-out variant of
:class:`~repro.dbscan.rt_dbscan.RTDBSCAN`: the dataset is split by a
:class:`~repro.partition.tiler.Tiler` into spatial tiles with ε-halo ghost
regions, each tile runs the paper's two query stages independently — on its
own simulated device shard, through **any** registered neighbour backend
(``rt`` / ``grid`` / ``kdtree`` / ``brute``) — and the per-tile results are
stitched by :func:`~repro.partition.merge.merge_tiles` into labels that are
bit-identical to an untiled run (see the equivalence argument in
:mod:`repro.partition.merge`).

Per tile, ε-queries are launched **only from owned points**, so the stage-1
ray total across tiles equals the untiled run's exactly (one ray per dataset
point); the candidate work (distance computations, node visits) *shrinks*,
because each shard's index covers only its local working set — that
reduction is the tiling speedup.  Stage 2, as in the untiled pipeline, fills
only the owned core points' rows (a tile with no core point launches
nothing) and is recorded as the paper's full relaunch: the tile's stage-1
counts a second time.  What tiling adds is a fixed per-tile cost (pipeline
setup + kernel launches) and the redundant indexing of halo points, both
visible in the aggregated report.

Tile fits run through the shared :class:`~repro.partition.executor.ParallelMap`
executor — serial by default (deterministic wall-clock), on worker threads
when ``workers > 1``.  Each worker thread runs in a copy of the caller's
context, so the kernel-tier overrides the parent pushes around
:meth:`TiledRTDBSCAN.fit` apply to the tile fits too.  Simulated-time
aggregation is strategy-independent: per-phase simulated seconds are the *sum* of the
per-tile device times (total device work), while the report metadata
records the critical path (the slowest tile chain) — the wall-clock bound an
actual multi-GPU deployment would see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api.protocol import ClustererMixin
from ..api.registry import make_backend, register_algorithm
from ..native import dispatch as native_dispatch
from ..dbscan.params import DBSCANParams, DBSCANResult
from ..geometry.transforms import ensure_points3d, validate_points
from ..perf.cost_model import DeviceCostModel, OpCounts
from ..perf.timing import PhaseTimer
from ..rtcore.device import RTDevice
from .executor import ParallelMap, as_parallel_map
from .merge import merge_tiles
from .tiler import Tiler

__all__ = ["TiledRTDBSCAN", "TileJob", "TileRunResult", "run_tile", "tiled_rt_dbscan"]


@dataclass
class TileJob:
    """Everything one tile fit needs."""

    tile_id: int
    #: local working set, owned points first (``(m, 3)`` lifted coordinates).
    points: np.ndarray
    #: number of leading rows of ``points`` that are owned.
    num_owned: int
    #: global index of every local point (owned first, then halo).
    local_to_global: np.ndarray
    eps: float
    min_pts: int
    backend: str
    backend_kwargs: dict
    cost_model: DeviceCostModel
    has_rt_cores: bool = True


@dataclass
class TileRunResult:
    """Shard-local outcome of one tile fit, mapped to global indices."""

    tile_id: int
    num_owned: int
    num_halo: int
    #: global indices of the owned points.
    owned: np.ndarray
    #: exact ε-neighbour counts of the owned points (self excluded).
    neighbor_counts: np.ndarray
    #: exact core flags of the owned points.
    core_mask: np.ndarray
    #: confirmed ε-adjacency of the owned *core* points as a shard CSR: row
    #: ``i`` holds the neighbours of ``owned[core_mask][i]`` in *global*
    #: indices (cluster formation reads no other rows).
    indptr: np.ndarray
    indices: np.ndarray
    #: core-row pairs whose neighbour lives in the halo (owned by another
    #: tile): the boundary edges the merge consumes.
    num_boundary_pairs: int
    build_seconds: float
    build_prims: int
    stage1_seconds: float
    stage2_seconds: float
    stage1_counts: OpCounts = field(default_factory=OpCounts)
    stage2_counts: OpCounts = field(default_factory=OpCounts)

    @property
    def total_seconds(self) -> float:
        """Simulated critical-path time of this tile's chain."""
        return self.build_seconds + self.stage1_seconds + self.stage2_seconds

    def summary(self) -> dict:
        counts = OpCounts.sum((self.stage1_counts, self.stage2_counts))
        return {
            "tile_id": self.tile_id,
            "num_owned": self.num_owned,
            "num_halo": self.num_halo,
            "num_pairs": int(self.indices.size),
            "num_boundary_pairs": self.num_boundary_pairs,
            "build_seconds": self.build_seconds,
            "build_prims": self.build_prims,
            "stage1_seconds": self.stage1_seconds,
            "stage2_seconds": self.stage2_seconds,
            "total_seconds": self.total_seconds,
            "counts": counts.as_dict(),
        }


def run_tile(job: TileJob) -> TileRunResult:
    """Run both Algorithm 3 query stages for one tile on its own device shard.

    Stage-1 queries are the tile's owned points, launched as *external*
    queries against the local (owned + halo) index so that no halo point
    ever spends a ray; external queries carry no self filter, so one self
    hit (distance zero) is subtracted from every count.  Stage 2 fills the
    owned core points' rows (owned points lead the local ordering, so their
    local ids are their row ids), self hits excluded by the backend.
    """
    device = RTDevice(
        cost_model=job.cost_model,
        has_rt_cores=job.has_rt_cores,
        name=f"sim-shard-{job.tile_id}",
    )
    finder = make_backend(job.backend, job.points, job.eps, device=device, **job.backend_kwargs)
    try:
        owned_pts = job.points[: job.num_owned]

        counts_with_self, stats1 = finder.neighbor_counts(owned_pts)
        neighbor_counts = counts_with_self.astype(np.int64) - 1
        core_mask = neighbor_counts >= job.min_pts

        core = np.flatnonzero(core_mask)
        indptr, ind_loc, _ = finder.neighbor_csr(rows=core, row_counts=neighbor_counts[core])
        build_seconds = finder.build_seconds
        build_prims = finder.num_prims
    finally:
        finder.release()

    return TileRunResult(
        tile_id=job.tile_id,
        num_owned=job.num_owned,
        num_halo=int(job.points.shape[0] - job.num_owned),
        owned=job.local_to_global[: job.num_owned],
        neighbor_counts=neighbor_counts,
        core_mask=core_mask,
        indptr=indptr,
        indices=job.local_to_global[ind_loc],
        num_boundary_pairs=int((ind_loc >= job.num_owned).sum()),
        build_seconds=build_seconds,
        build_prims=build_prims,
        stage1_seconds=stats1.simulated_seconds,
        stage2_seconds=stats1.simulated_seconds,
        stage1_counts=stats1.counts,
        stage2_counts=stats1.counts,
    )


@register_algorithm(
    "rt-dbscan-tiled",
    description="Algorithm 3 sharded over spatial tiles with eps-halo boundary merge.",
    supports_backend=True,
    supports_tiles=True,
    supports_native=True,
)
@dataclass
class TiledRTDBSCAN(ClustererMixin):
    """Tiled RT-DBSCAN clusterer.

    Parameters
    ----------
    eps, min_pts:
        The DBSCAN parameters.
    device:
        Simulated device whose cost model prices the *aggregated* report;
        each tile runs on a private device shard with the same cost model
        (one simulated GPU per shard).
    backend:
        Neighbour-search substrate per tile: ``"rt"`` (default), ``"grid"``,
        ``"kdtree"`` or ``"brute"``.  Labels are identical across backends
        and identical to the untiled :class:`~repro.dbscan.rt_dbscan.RTDBSCAN`.
    tiles:
        Target tile count (see :class:`~repro.partition.tiler.Tiler`), or
        ``"auto"`` to scale with the dataset (~one tile per 4096 points,
        capped at 16).
    grid:
        Explicit ``(nx, ny, nz)`` tile grid; overrides ``tiles``.
    workers:
        Tile-fit parallelism for the :class:`ParallelMap` executor: serial
        by default, that many worker threads when greater than one.  An
        existing executor can be passed instead.
    builder, leaf_size, chunk_size:
        Acceleration-structure parameters forwarded to the ``rt`` backend
        (ignored by the host backends).
    keep_neighbor_counts:
        Store per-point neighbour counts and points in the result so
        :meth:`DBSCANResult.refit` works, as in the untiled pipeline.
    native:
        Kernel-tier override for the whole fit, tile worker threads
        included: ``True`` forces the compiled C kernels, ``False`` forces
        pure numpy, ``None`` defers to ``REPRO_NATIVE``.  Labels and charged
        operation counts are identical either way.
    native_threads:
        OpenMP worker-count override for the native kernels, applied like
        ``native``; ``None`` defers to ``REPRO_NATIVE_THREADS``.
        Byte-identical results at any count.
    """

    eps: float
    min_pts: int
    device: RTDevice | None = None
    backend: str = "rt"
    tiles: int | str = 4
    grid: tuple[int, int, int] | None = None
    workers: int | ParallelMap | None = None
    builder: str = "lbvh"
    leaf_size: int = 4
    chunk_size: int = 16384
    keep_neighbor_counts: bool = True
    native: bool | None = None
    native_threads: int | None = None

    def __post_init__(self) -> None:
        self.params = DBSCANParams(eps=self.eps, min_pts=self.min_pts)
        self.device = self.device or RTDevice()
        self.backend = str(self.backend).lower()
        if isinstance(self.tiles, str):
            if self.tiles != "auto":
                raise ValueError(f"tiles must be a positive integer or 'auto', got {self.tiles!r}")
        elif int(self.tiles) < 1:
            raise ValueError(f"tiles must be a positive integer or 'auto', got {self.tiles}")

    # ------------------------------------------------------------------ #
    def _num_tiles(self, n: int) -> int:
        if self.tiles == "auto":
            return max(1, min(16, n // 4096))
        return int(self.tiles)

    def _backend_kwargs(self) -> dict:
        if self.backend != "rt":
            return {}
        return {
            "builder": self.builder,
            "leaf_size": self.leaf_size,
            "chunk_size": self.chunk_size,
        }

    def _make_jobs(self, pts3: np.ndarray, tiles) -> list[TileJob]:
        return [
            TileJob(
                tile_id=t.tile_id,
                points=pts3[t.indices],
                num_owned=t.num_owned,
                local_to_global=np.asarray(t.indices, dtype=np.intp),
                eps=self.params.eps,
                min_pts=self.params.min_pts,
                backend=self.backend,
                backend_kwargs=self._backend_kwargs(),
                cost_model=self.device.cost_model,
                has_rt_cores=self.device.has_rt_cores,
            )
            for t in tiles
        ]

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster ``points``; labels are bit-identical to an untiled run."""
        # Tile worker threads run in a copy of this context (ParallelMap), so
        # these overrides cover them as well as the parent-side merge (whose
        # union-find consults the dispatcher).
        with native_dispatch.overrides(self.native, self.native_threads):
            return self._fit(points)

    def _fit(self, points: np.ndarray) -> DBSCANResult:
        points = validate_points(points)
        pts3 = ensure_points3d(points)
        n = pts3.shape[0]
        executor = as_parallel_map(self.workers)
        timer = PhaseTimer("rt-dbscan-tiled", self.device.cost_model)

        # -------------------------------------------------------------- #
        # Tile split: host-side planning, charged no device time.
        # -------------------------------------------------------------- #
        with timer.phase("tile_split", simulated_seconds=0.0):
            tiler = Tiler(self.params.eps, tiles=self._num_tiles(n), grid=self.grid)
            tiles = tiler.split(pts3)
            jobs = self._make_jobs(pts3, tiles)

        timer.metadata.update(
            {
                "eps": self.params.eps,
                "min_pts": self.params.min_pts,
                "num_points": n,
                "device": self.device.name,
                "backend": self.backend,
                "num_tiles": len(tiles),
                "grid": tuple(int(g) for g in tiler.grid_shape(pts3)),
                "workers": executor.workers,
            }
        )

        # -------------------------------------------------------------- #
        # Shard-local clustering: both query stages, per tile, in parallel.
        # -------------------------------------------------------------- #
        results = executor.map(run_tile, jobs)

        build_counts = OpCounts(
            bvh_build_prims=sum(r.build_prims for r in results),
            kernel_launches=len(results),
        )
        stage1_counts = OpCounts.sum(r.stage1_counts for r in results)
        stage2_counts = OpCounts.sum(r.stage2_counts for r in results)
        timer.add_phase(
            "bvh_build",
            counts=build_counts,
            simulated_seconds=sum(r.build_seconds for r in results),
        )
        timer.add_phase(
            "core_identification",
            counts=stage1_counts,
            simulated_seconds=sum(r.stage1_seconds for r in results),
        )

        # -------------------------------------------------------------- #
        # Boundary merge: exact global stage 2 over the stitched pair set.
        # -------------------------------------------------------------- #
        with timer.phase("cluster_formation") as counts:
            merged = merge_tiles(n, results)
            counts.merge(stage2_counts)
            counts.union_ops += merged.num_unions
            counts.atomic_ops += merged.num_atomics
        # Stage-2 query time was simulated on the tile shards; the merge's
        # union/atomic work is priced by the parent cost model on top.
        timer.set_last_phase_seconds(
            sum(r.stage2_seconds for r in results)
            + self.device.cost_model.time_s(
                OpCounts(union_ops=merged.num_unions, atomic_ops=merged.num_atomics)
            )
        )

        critical = max((r.total_seconds for r in results), default=0.0)
        report = timer.report()
        report.metadata["critical_path_seconds"] = critical
        total_tile_seconds = sum(r.total_seconds for r in results)
        report.metadata["parallel_speedup_bound"] = (
            total_tile_seconds / critical if critical > 0 else 1.0
        )

        return DBSCANResult(
            labels=merged.labels,
            core_mask=merged.core_mask,
            params=self.params,
            algorithm="rt-dbscan-tiled",
            report=report,
            neighbor_counts=merged.neighbor_counts if self.keep_neighbor_counts else None,
            points=points if self.keep_neighbor_counts else None,
            extra={
                "backend": self.backend,
                "kernel_tier": native_dispatch.active_tier(),
                "build_seconds": sum(r.build_seconds for r in results),
                "num_tiles": len(tiles),
                "num_boundary_pairs": merged.num_boundary_pairs,
                "critical_path_seconds": critical,
                "tiles": [r.summary() for r in results],
            },
        )


def tiled_rt_dbscan(points: np.ndarray, eps: float, min_pts: int, **kwargs) -> DBSCANResult:
    """Functional convenience wrapper around :class:`TiledRTDBSCAN`."""
    return TiledRTDBSCAN(eps=eps, min_pts=min_pts, **kwargs).fit(points)
