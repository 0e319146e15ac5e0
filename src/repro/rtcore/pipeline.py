"""OptiX-style scene pipeline on the simulated RT device.

The pipeline mirrors the structure of Fig. 2 in the paper:

1.  the user supplies a geometry (ε-spheres, or their triangle tessellation
    for the Section VI-C ablation) together with its bounds program;
2.  ``build_accel`` hands the per-primitive AABBs to the device, which builds
    the BVH (hardware-accelerated when RT cores are present) and prices the
    build;
3.  ``launch_*`` generates one query ray per input point and hands it,
    with the caller's :class:`~repro.rtcore.programs.SphereProgram`, to
    :func:`~repro.rtcore.programs.launch_sphere`, which traverses the BVH in
    "hardware" (the native DFS kernel or the numpy frontier kernels of
    :mod:`repro.bvh`) and runs the Intersection program once per candidate
    primitive; triangle mode also pays one AnyHit invocation per confirmed
    triangle hit (the program that records the hit against the triangle's
    sphere).

A launch returns either per-query hit counts or a canonical CSR adjacency
(see :mod:`repro.adjacency`), together with a :class:`LaunchStats` record of
the operation counts and their simulated device time, which the DBSCAN
implementations aggregate into their per-phase reports — the one record of
the operations a run performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..adjacency import check_row_counts, csr_row_ids, pairs_to_csr
from ..bvh.lbvh import build_lbvh
from ..bvh.node import BVH
from ..bvh.refit import refit as refit_bvh
from ..bvh.sah import build_sah
from ..geometry.sphere import SphereGeometry
from ..geometry.transforms import ensure_points3d
from ..geometry.triangle import TriangleGeometry
from ..perf.cost_model import OpCounts
from .counters import LaunchStats
from .device import RTDevice
from .programs import SphereProgram, launch_sphere

__all__ = ["ScenePipeline"]


@dataclass
class ScenePipeline:
    """A scene (geometry + acceleration structure) ready for ray launches.

    Parameters
    ----------
    device:
        The simulated GPU the pipeline runs on.
    geometry:
        Either a :class:`SphereGeometry` (the paper's normal mode) or a
        :class:`TriangleGeometry` (the Section VI-C triangle mode).
    builder:
        ``"lbvh"`` (hardware-style Morton builder, default) or ``"sah"``.
    leaf_size:
        Maximum primitives per BVH leaf.
    chunk_size:
        Number of query rays traversed per vectorised frontier pass.
    """

    device: RTDevice
    geometry: SphereGeometry | TriangleGeometry
    builder: str = "lbvh"
    leaf_size: int = 4
    chunk_size: int = 16384
    bvh: BVH | None = field(default=None, init=False)
    accel_build_seconds: float = field(default=0.0, init=False)

    # ------------------------------------------------------------------ #
    @property
    def num_primitives(self) -> int:
        return len(self.geometry)

    @property
    def is_triangle_mode(self) -> bool:
        return isinstance(self.geometry, TriangleGeometry)

    def build_accel(self) -> float:
        """Build the acceleration structure; returns the simulated build time.

        The device memory tracker is charged for the BVH and the primitive
        buffers, reproducing the footprint the OptiX builder would allocate,
        under labels unique to this pipeline, so pipelines sharing a device
        book and free their memory independently.
        """
        bounds = self.geometry.bounds()
        if self.builder == "lbvh":
            self.bvh = build_lbvh(bounds, leaf_size=self.leaf_size)
        elif self.builder == "sah":
            self.bvh = build_sah(bounds, leaf_size=self.leaf_size)
        else:
            raise ValueError(f"unknown builder {self.builder!r}")
        self.device.memory.allocate(f"accel_structure_{id(self)}", self.bvh.memory_bytes())
        if isinstance(self.geometry, SphereGeometry):
            prim_bytes = self.geometry.centers.nbytes + self.geometry.radii.nbytes
        else:
            prim_bytes = self.geometry.vertices.nbytes + self.geometry.faces.nbytes
        self.device.memory.allocate(f"primitive_buffers_{id(self)}", prim_bytes)
        self.accel_build_seconds = self.device.accel_build_seconds(self.num_primitives)
        return self.accel_build_seconds

    def refit_accel(self) -> float:
        """Refit the acceleration structure to the geometry's current bounds.

        The tree topology (node layout, leaf ranges, primitive order) is
        preserved; only the per-primitive and per-node bounds are recomputed.
        This is the OptiX "accel update" path the streaming subsystem uses
        when a window update moves, adds or parks a small number of spheres.
        Returns the simulated refit time.
        """
        bvh = self._require_accel()
        self.bvh = refit_bvh(bvh, self.geometry.bounds())
        return self.device.accel_refit_seconds(self.num_primitives)

    # ------------------------------------------------------------------ #
    def _require_accel(self) -> BVH:
        if self.bvh is None:
            raise RuntimeError("build_accel() must be called before launching rays")
        return self.bvh

    def _count_launch(self, stats: LaunchStats) -> None:
        """Record the launch's operation counts and their simulated seconds."""
        counts = OpCounts(kernel_launches=1)
        if self.device.has_rt_cores:
            counts.rt_node_visits = stats.traversal.node_visits
        else:
            counts.sm_node_visits = stats.traversal.node_visits
        counts.intersection_calls = stats.intersection_calls
        counts.anyhit_calls = stats.anyhit_calls
        stats.counts = counts
        stats.simulated_seconds = self.device.cost_model.time_s(counts)

    # ------------------------------------------------------------------ #
    def launch_csr_queries(
        self, points: np.ndarray, program: SphereProgram, *,
        row_counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """Launch one ε-ray per point and return confirmed hits as a CSR adjacency.

        The zero-materialisation stage-2 launch: candidates are confirmed by
        the Intersection program chunk-by-chunk inside the traversal and the
        confirmed neighbour lists come back in canonical CSR form
        (``indptr``, ``indices``) — the full candidate pair set never exists
        in memory.  ``row_counts`` (the rows' known hit counts) lets the
        launch run its fill pass alone (see
        :func:`~repro.rtcore.programs.launch_sphere`).

        In triangle mode a sphere is hit through several of its triangles:
        each confirmed triangle hit costs one AnyHit call and is collapsed
        to its owning data point, so row ``q`` lists every neighbour once.
        The deduplicated rows are then checked against ``row_counts``, which
        cannot seed the launch (triangle hits outnumber them).
        """
        bvh = self._require_accel()
        pts = ensure_points3d(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        indptr, indices, traversal = launch_sphere(
            bvh, pts, program, collect=True, chunk_size=self.chunk_size,
            row_counts=None if self.is_triangle_mode else row_counts,
        )
        stats = LaunchStats(num_rays=pts.shape[0], traversal=traversal)
        stats.intersection_calls = traversal.candidates
        if self.is_triangle_mode:
            stats.anyhit_calls = traversal.confirmed
            n_owners = np.int64(self.num_owner_points())
            keys = np.unique(
                csr_row_ids(indptr) * n_owners + self.geometry.owners[indices]
            )
            indptr, indices = pairs_to_csr(keys // n_owners, keys % n_owners, pts.shape[0])
            if row_counts is not None:
                check_row_counts(np.diff(indptr), row_counts)
        stats.confirmed_hits = int(indices.size)
        self._count_launch(stats)
        return indptr, indices, stats

    def launch_count_queries(
        self, points: np.ndarray, program: SphereProgram
    ) -> tuple[np.ndarray, LaunchStats]:
        """Launch one ε-ray per point and count confirmed hits per query.

        This is the launch RT-DBSCAN's core-point identification stage uses:
        the Intersection program increments a per-ray counter and nothing is
        stored.  Triangle mode counts the rows of the deduplicating
        :meth:`launch_csr_queries` (a per-triangle tally would count a
        neighbour once per triangle hit); it records the same operations.
        """
        if self.is_triangle_mode:
            indptr, _, stats = self.launch_csr_queries(points, program)
            return np.diff(indptr), stats
        bvh = self._require_accel()
        pts = ensure_points3d(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        counts, traversal = launch_sphere(
            bvh, pts, program, collect=False, chunk_size=self.chunk_size
        )
        stats = LaunchStats(num_rays=pts.shape[0], traversal=traversal)
        stats.intersection_calls = traversal.candidates
        stats.confirmed_hits = traversal.confirmed
        self._count_launch(stats)
        return counts, stats

    # ------------------------------------------------------------------ #
    def num_owner_points(self) -> int:
        """Number of underlying data points behind the geometry."""
        if isinstance(self.geometry, TriangleGeometry):
            return int(self.geometry.owners.max()) + 1 if len(self.geometry) else 0
        return len(self.geometry)

    def release(self) -> None:
        """Free the device allocations owned by this pipeline."""
        self.device.memory.free(f"accel_structure_{id(self)}")
        self.device.memory.free(f"primitive_buffers_{id(self)}")
        self.bvh = None
