"""RT-FindNeighborhood — the paper's Algorithm 2.

``findNeighborhood(p, S, ε)`` is reduced to a ray-tracing query: every point
of the dataset becomes a solid sphere of radius ε, and an infinitesimally
short ray launched from the query point intersects exactly the spheres whose
centres lie within ε (Section III-B/III-C).  ``RTNeighborFinder`` wraps the
scene setup (sphere geometry, or its triangle tessellation, and the
acceleration-structure build of a :class:`~repro.rtcore.pipeline.ScenePipeline`)
and launches the sphere Intersection program
(:class:`~repro.rtcore.programs.SphereProgram`) for the two query flavours
DBSCAN needs:

* ``neighbor_counts``  — count ε-neighbours per point (stage 1 of Algorithm 3);
* ``neighbor_csr``     — the confirmed ε-adjacency in canonical CSR form,
  produced chunk-by-chunk so the pair set is never materialised; stage 2
  fills only the core points' rows, seeded by their stage-1 counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..adjacency import point_rows
from ..api.registry import register_backend
from ..geometry.sphere import SphereGeometry
from ..geometry.transforms import ensure_points3d
from ..geometry.triangle import tessellate_spheres
from ..rtcore.counters import LaunchStats
from ..rtcore.device import RTDevice
from ..rtcore.pipeline import ScenePipeline
from ..rtcore.programs import SphereProgram

__all__ = ["RTNeighborFinder", "rt_find_neighbors"]


@register_backend(
    "rt",
    description="ε-sphere ray queries on the simulated RT cores (the paper's Algorithm 2).",
    native=True,
)
@dataclass
class RTNeighborFinder:
    """Fixed-radius neighbour search backed by the simulated RT device.

    Parameters
    ----------
    points:
        ``(n, 2)`` or ``(n, 3)`` data points.  2D inputs are lifted to 3D
        with z = 0, as the paper does for planar datasets.
    radius:
        The ε query radius (also the radius of every scene sphere).
    device:
        Simulated device; a fresh RTX 2060-like device is created if omitted.
    builder, leaf_size, chunk_size:
        Acceleration-structure and launch parameters forwarded to the
        pipeline.
    triangle_mode:
        When True the spheres are tessellated into triangles and each
        confirmed triangle hit costs an AnyHit call that maps it back
        to its sphere (the Section VI-C ablation).
    """

    points: np.ndarray
    radius: float
    device: RTDevice | None = None
    builder: str = "lbvh"
    leaf_size: int = 4
    chunk_size: int = 16384
    triangle_mode: bool = False
    triangle_subdivisions: int = 0

    pipeline: ScenePipeline = field(default=None, init=False)  # type: ignore[assignment]
    build_seconds: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.radius <= 0 or not np.isfinite(self.radius):
            raise ValueError("radius (eps) must be positive")
        # One validated float64 lift; the scene geometry, the sphere program
        # and any later refit all share this single array instead of
        # re-validating (and re-copying) per step.
        self.points = ensure_points3d(self.points)
        self.device = self.device or RTDevice()
        if self.triangle_mode:
            geometry = tessellate_spheres(
                self.points, self.radius, subdivisions=self.triangle_subdivisions
            )
        else:
            geometry = SphereGeometry(self.points, self.radius)
        self.pipeline = ScenePipeline(
            device=self.device, geometry=geometry, builder=self.builder,
            leaf_size=self.leaf_size, chunk_size=self.chunk_size,
        )
        self.build_seconds = self.pipeline.build_accel()

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def num_prims(self) -> int:
        """Scene primitives (spheres, or triangles in triangle mode)."""
        return self.pipeline.num_primitives

    def _program(self, self_map: np.ndarray | None) -> SphereProgram:
        """The sphere program for queries whose own point ids are ``self_map``."""
        owners = self.pipeline.geometry.owners if self.triangle_mode else None
        return SphereProgram(self.points, self.radius, self_map=self_map, owners=owners)

    def _launch_args(self, queries: np.ndarray | None) -> tuple[np.ndarray, SphereProgram]:
        """Launch points and program: dataset queries drop their own ids."""
        if queries is None:
            return self.points, self._program(np.arange(self.num_points))
        return ensure_points3d(queries, name="queries"), self._program(None)

    def neighbor_counts(
        self, queries: np.ndarray | None = None
    ) -> tuple[np.ndarray, LaunchStats]:
        """Count ε-neighbours for each query point.

        ``queries`` defaults to the dataset itself (the DBSCAN use case), in
        which case the point's own sphere is excluded from its count.
        Arbitrary external query points are also supported (no self filter).
        Counts always equal the row lengths of :meth:`neighbor_csr`.
        """
        return self.pipeline.launch_count_queries(*self._launch_args(queries))

    def neighbor_csr(
        self, queries: np.ndarray | None = None, *,
        rows: np.ndarray | None = None, row_counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """Confirmed ε-adjacency in canonical CSR form (see :mod:`repro.adjacency`).

        The zero-materialisation stage-2 query: hits are confirmed inside the
        chunked traversal and come back as ``(indptr, indices)`` — the full
        candidate pair set never exists in memory.  Self pairs are excluded
        when querying the dataset against itself.

        ``rows`` fills only the rows of those dataset points instead: CSR row
        ``i`` is point ``rows[i]``, self hit excluded, byte for byte row
        ``rows[i]`` of ``neighbor_csr()``.  A sphere launch handed their
        stage-1 counts as ``row_counts`` runs its fill pass alone; triangle
        mode checks its deduplicated rows against them.  Either raises
        ``ValueError`` if the hits differ.  The stats are the fill's own:
        RT-DBSCAN records its stage 2 as the stage-1 counts.
        """
        if rows is None:
            return self.pipeline.launch_csr_queries(
                *self._launch_args(queries), row_counts=row_counts
            )
        if queries is not None:
            raise ValueError("pass either queries or rows, not both")
        rows = point_rows(rows, self.num_points)
        if rows.size == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp), LaunchStats()
        return self.pipeline.launch_csr_queries(
            self.points[rows], self._program(rows), row_counts=row_counts
        )

    def neighbor_lists(self, queries: np.ndarray | None = None) -> list[np.ndarray]:
        """Per-query neighbour index lists (convenience wrapper for examples)."""
        indptr, indices, _ = self.neighbor_csr(queries)
        return list(np.split(indices, indptr[1:-1]))

    def release(self) -> None:
        """Free the device-side scene."""
        self.pipeline.release()


def rt_find_neighbors(
    points: np.ndarray, radius: float, **kwargs
) -> tuple[list[np.ndarray], LaunchStats]:
    """One-shot RT-FindNeighborhood over a dataset.

    Builds the ε-sphere scene, launches one ray per point, and returns the
    per-point neighbour lists together with the launch statistics.
    """
    finder = RTNeighborFinder(points, radius, **kwargs)
    try:
        indptr, indices, stats = finder.neighbor_csr()
        return list(np.split(indices, indptr[1:-1])), stats
    finally:
        finder.release()
