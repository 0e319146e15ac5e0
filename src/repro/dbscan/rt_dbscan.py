"""RT-DBSCAN — the paper's core contribution (Algorithm 3).

The algorithm has two stages, both expressed as fixed-radius neighbour
queries against a pluggable search substrate (by default ε-ray launches on
the simulated RT device):

1. **Core-point identification** — one query per point; a point whose
   confirmed ε-neighbour count (excluding the self hit) reaches ``min_pts``
   is a core point.  Nothing else is stored, which keeps memory at O(n).
2. **Cluster formation** — the neighbourhoods are recomputed with a second
   query pass (the redundant work the paper accepts because hardware
   traversal is cheap) and merged with a union–find forest: core–core pairs
   are unioned, border points are attached atomically to one neighbouring
   core cluster (see :mod:`repro.dbscan.formation`).

Only the core rows of stage 2 are read, so the host fills only those: the
backend's ``neighbor_csr(rows=core_ids, row_counts=...)`` sizes them from the
stage-1 counts, and a sphere launch or the grid then runs one fill pass over
the core points.  The simulated device is still charged the paper's full relaunch,
as the stage-1 launch's counts a second time (a count launch and a CSR
launch charge identical operations), so phase counts and simulated seconds
match a full second pass exactly.  Triangle mode keeps its deduplicated
stage-1 adjacency and launches once.

The neighbour search is resolved from the backend registry
(:mod:`repro.neighbors.backend`): ``backend="rt"`` is the paper's RT-core
pipeline, while ``"grid"``, ``"kdtree"`` and ``"brute"`` run the identical
Algorithm 3 on host substrates — a CPU fast path and the backend-ablation
experiment in one mechanism.  Labels are bit-identical across backends; only
the operations charged to the device cost model differ, so benchmarks can
report the Section V-D style breakdown (index build vs the two clustering
stages) for every substrate.

For datasets that outgrow one device (or to use more host cores),
:class:`~repro.partition.tiled.TiledRTDBSCAN` runs this same pipeline
shard-locally over spatial tiles with ε-halo ghost regions and stitches the
shards with the stage-2 :func:`~repro.dbscan.formation.form_clusters_csr`
pass — labels stay bit-identical to this class's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.protocol import ClustererMixin
from ..api.registry import make_backend, register_algorithm
from ..geometry.transforms import validate_points
from ..native import dispatch as native_dispatch
from ..perf.cost_model import OpCounts
from ..perf.timing import PhaseTimer
from ..rtcore.device import RTDevice
from .formation import form_clusters_csr
from .params import DBSCANParams, DBSCANResult

__all__ = ["RTDBSCAN", "rt_dbscan"]


@register_algorithm(
    "rt-dbscan",
    description="The paper's Algorithm 3 on the simulated RT device (pluggable backends).",
    supports_backend=True,
    supports_native=True,
)
@dataclass
class RTDBSCAN(ClustererMixin):
    """RT-DBSCAN clusterer.

    Parameters
    ----------
    eps:
        Maximum distance between two points in the same neighbourhood.
    min_pts:
        Minimum number of ε-neighbours (excluding the point itself) required
        for a core point.
    device:
        Simulated RT device; a default RTX 2060-like device is created when
        omitted.
    backend:
        Neighbour-search substrate: ``"rt"`` (default, the paper's RT-core
        ray queries), ``"grid"``, ``"kdtree"`` or ``"brute"``.  All backends
        produce identical labels; only the simulated cost differs.
    builder, leaf_size, chunk_size:
        Acceleration-structure parameters forwarded to the RT pipeline
        (ignored by the host backends).
    triangle_mode:
        Use the Section VI-C triangle tessellation instead of the sphere
        Intersection program (slower; for the ablation benchmark).  Only
        meaningful with the ``"rt"`` backend.
    keep_neighbor_counts:
        Store the per-point neighbour counts (and the points) in the result
        so that :meth:`DBSCANResult.refit` can relabel with a different
        ``min_pts`` without a second stage-1 launch (Section VI-B).
    native:
        Kernel-tier override for this fit: ``True`` forces the compiled C
        kernels, ``False`` forces pure numpy, ``None`` (default) defers to
        the ``REPRO_NATIVE`` environment knob.  Labels and charged operation
        counts are identical either way; the tier actually used is recorded
        as ``result.extra["kernel_tier"]``.
    native_threads:
        OpenMP worker-count override for this fit's native kernels: a
        positive integer pins the fan-out, ``None`` (default) defers to the
        ``REPRO_NATIVE_THREADS`` environment knob.  Byte-identical results
        at any count; ignored on the numpy tier or a serial build.
    """

    eps: float
    min_pts: int
    device: RTDevice | None = None
    backend: str = "rt"
    builder: str = "lbvh"
    leaf_size: int = 4
    chunk_size: int = 16384
    triangle_mode: bool = False
    triangle_subdivisions: int = 0
    keep_neighbor_counts: bool = True
    native: bool | None = None
    native_threads: int | None = None

    def __post_init__(self) -> None:
        self.params = DBSCANParams(eps=self.eps, min_pts=self.min_pts)
        self.device = self.device or RTDevice()
        self.backend = str(self.backend).lower()
        if self.triangle_mode and self.backend != "rt":
            raise ValueError(
                f"triangle_mode requires the 'rt' backend, got {self.backend!r}"
            )

    def _backend_kwargs(self) -> dict:
        if self.backend != "rt":
            return {}
        return {
            "builder": self.builder,
            "leaf_size": self.leaf_size,
            "chunk_size": self.chunk_size,
            "triangle_mode": self.triangle_mode,
            "triangle_subdivisions": self.triangle_subdivisions,
        }

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster ``points`` and return the labelling with its timing report."""
        with native_dispatch.overrides(self.native, self.native_threads):
            return self._fit(points)

    def _fit(self, points: np.ndarray) -> DBSCANResult:
        # The backend lifts 2D input to 3D; the result keeps the input itself.
        points = validate_points(points)
        n = points.shape[0]
        timer = PhaseTimer("rt-dbscan", self.device.cost_model)
        timer.metadata.update(
            {
                "eps": self.params.eps,
                "min_pts": self.params.min_pts,
                "num_points": n,
                "device": self.device.name,
                "backend": self.backend,
                "triangle_mode": self.triangle_mode,
            }
        )

        # -------------------------------------------------------------- #
        # Scene setup + index build over the ε-spheres (BVH on the RT
        # backend, grid/KD-tree on the host backends, nothing for brute).
        # -------------------------------------------------------------- #
        finder = None
        with timer.phase("bvh_build") as counts:
            finder = make_backend(
                self.backend,
                points,
                self.params.eps,
                device=self.device,
                **self._backend_kwargs(),
            )
            counts.bvh_build_prims = finder.num_prims
            counts.kernel_launches += 1
        # The build time is derived from the primitive count, not the counts
        # recorded above; patch the phase with the backend's build estimate.
        timer.set_last_phase_seconds(finder.build_seconds)

        try:
            # ---------------------------------------------------------- #
            # Stage 1 — core point identification (Algorithm 3, lines 1-6).
            # ---------------------------------------------------------- #
            with timer.phase("core_identification") as counts:
                if self.triangle_mode:
                    # Triangle mode launches once: stage 2 reuses this
                    # deduplicated adjacency.
                    indptr, indices, stats1 = finder.neighbor_csr()
                    neighbor_counts = np.diff(indptr)
                else:
                    neighbor_counts, stats1 = finder.neighbor_counts()
                counts.merge(stats1.counts)
                core_mask = neighbor_counts >= self.params.min_pts

            # ---------------------------------------------------------- #
            # Stage 2 — cluster formation with union-find (lines 7-18).
            # The paper relaunches every ε-query here; that launch is
            # charged as the stage-1 counts again, while the host fills
            # only the core rows formation reads (triangle mode already
            # holds its deduplicated adjacency from stage 1).
            # ---------------------------------------------------------- #
            with timer.phase("cluster_formation") as counts:
                rows = None
                if not self.triangle_mode:
                    rows = np.flatnonzero(core_mask)
                    indptr, indices, _ = finder.neighbor_csr(
                        rows=rows, row_counts=neighbor_counts[rows]
                    )
                    counts.merge(stats1.counts)
                    self.device.charge(stats1.counts)

                formation = form_clusters_csr(indptr, indices, core_mask, rows=rows)
                counts.union_ops += formation.num_unions
                counts.atomic_ops += formation.num_atomics
                self.device.charge(
                    OpCounts(
                        union_ops=formation.num_unions,
                        atomic_ops=formation.num_atomics,
                    )
                )
                labels = formation.labels
        finally:
            if finder is not None:
                finder.release()

        report = timer.report()
        return DBSCANResult(
            labels=labels,
            core_mask=core_mask,
            params=self.params,
            algorithm="rt-dbscan" if not self.triangle_mode else "rt-dbscan-triangles",
            report=report,
            neighbor_counts=neighbor_counts if self.keep_neighbor_counts else None,
            points=points if self.keep_neighbor_counts else None,
            extra={
                "build_seconds": finder.build_seconds if finder else 0.0,
                "backend": self.backend,
                "kernel_tier": native_dispatch.active_tier(),
            },
        )


@register_algorithm(
    "rt-dbscan-triangles",
    description="RT-DBSCAN with triangle-tessellated spheres (Section VI-C ablation).",
)
def _rt_dbscan_triangles(eps: float, min_pts: int, device=None, **kwargs) -> RTDBSCAN:
    kwargs.setdefault("triangle_mode", True)
    return RTDBSCAN(eps=eps, min_pts=min_pts, device=device, **kwargs)


def rt_dbscan(points: np.ndarray, eps: float, min_pts: int, **kwargs) -> DBSCANResult:
    """Functional convenience wrapper around :class:`RTDBSCAN`."""
    return RTDBSCAN(eps=eps, min_pts=min_pts, **kwargs).fit(points)
