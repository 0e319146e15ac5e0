"""CUDA-DClust+ baseline (Poudel & Gowanlock).

CUDA-DClust+ grows many clusters in parallel as *chains*: each GPU block
picks an unprocessed seed point, expands a cluster from it using a grid
index, and records *collisions* when its chain reaches points already owned
by another chain; a final host pass merges collided chains.  Compared to
CUDA-DClust it builds the grid index on the GPU and reduces transfers, but
it still keeps per-chain bookkeeping (seed lists, a collision matrix and the
grid index) resident on the device — the paper observes both memory pressure
on the 6 GB RTX 2060 beyond ~10^5 points and run-to-run variability in
cluster assignment of border points.

The reproduction keeps the chain/collision structure (so the cost and memory
profile follow the same shape) while producing a deterministic, exact DBSCAN
labelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.protocol import ClustererMixin
from ..api.registry import register_algorithm
from ..dbscan.disjoint_set import DisjointSet
from ..dbscan.labels import labels_from_roots
from ..dbscan.params import DBSCANParams, DBSCANResult, canonicalize_labels
from ..geometry.transforms import validate_points
from ..neighbors.grid import UniformGrid
from ..perf.timing import PhaseTimer
from ..rtcore.device import RTDevice

__all__ = ["CUDADClustPlus", "cuda_dclust_plus"]


@register_algorithm(
    "cuda-dclust+",
    description="CUDA-DClust+ (Poudel & Gowanlock): grid index + parallel chain expansion.",
)
@dataclass
class CUDADClustPlus(ClustererMixin):
    """CUDA-DClust+ clusterer (grid index + parallel chain expansion).

    Parameters
    ----------
    eps, min_pts:
        DBSCAN parameters.
    device:
        Simulated GPU (shader cores only).
    chain_length:
        Number of points a chain may claim before yielding (per-block work
        quantum in the original implementation); affects only the simulated
        kernel-launch count, not the labelling.
    max_neighbors_buffer:
        Capacity of the fixed per-point candidate buffer the GPU kernels
        allocate; together with the collision matrix this is what exhausts
        device memory on larger datasets.
    """

    eps: float
    min_pts: int
    device: RTDevice | None = None
    chain_length: int = 64
    max_neighbors_buffer: int = 8192

    def __post_init__(self) -> None:
        self.params = DBSCANParams(eps=self.eps, min_pts=self.min_pts)
        self.device = self.device or RTDevice()

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster ``points``; raises ``DeviceMemoryError`` when the chain
        bookkeeping exceeds the simulated device memory."""
        pts = validate_points(points)
        n = pts.shape[0]
        eps = self.params.eps
        timer = PhaseTimer("cuda-dclust+", self.device.cost_model)
        timer.metadata.update(
            {"eps": eps, "min_pts": self.params.min_pts, "num_points": n, "device": self.device.name}
        )

        try:
            # ------------------------------------------------------------ #
            # Index construction: the ε-cell grid, built on the GPU.
            # ------------------------------------------------------------ #
            with timer.phase("index_construction") as counts:
                grid = UniformGrid(pts, eps)
                self.device.memory.allocate("dclust_grid", grid.memory_bytes())
                # Fixed-capacity per-point neighbour-table buffers + chain states.
                # The original implementation keeps a neighbour table of
                # ``n x max_neighbors`` 32-bit indices resident on the device,
                # which is what exhausts the 6 GB budget beyond ~10^5 points.
                num_chains = max(1, n // self.chain_length)
                self.device.memory.allocate(
                    "dclust_candidate_buffers", n * self.max_neighbors_buffer * 4
                )
                self.device.memory.allocate("dclust_collision_matrix", num_chains * num_chains)
                counts.bytes_moved += pts.nbytes
                counts.kernel_launches += 2

            # ------------------------------------------------------------ #
            # Chain expansion: neighbourhoods come from the grid; every
            # candidate inspected costs one distance computation.
            # ------------------------------------------------------------ #
            with timer.phase("chain_expansion") as counts:
                neighbor_lists: list[np.ndarray] = []
                distance_tests = 0
                for i in range(n):
                    cand = grid.candidate_neighbors(pts[i])
                    distance_tests += int(cand.size)
                    d = pts[cand] - pts[i]
                    ok = np.einsum("ij,ij->i", d, d) <= eps * eps
                    nb = cand[ok]
                    neighbor_lists.append(nb[nb != i])
                degrees = np.asarray([len(nb) for nb in neighbor_lists], dtype=np.int64)
                core_mask = degrees >= self.params.min_pts

                # Chains expand clusters in parallel; every point processed
                # costs a chain step and collisions are resolved with the
                # collision matrix (modelled as atomic operations).
                forest = DisjointSet(n)
                collisions = 0
                for i in np.flatnonzero(core_mask):
                    for j in neighbor_lists[i]:
                        if core_mask[j]:
                            if not forest.connected(i, int(j)):
                                collisions += 1
                            forest.union(i, int(j))
                # Border points attach to the first core chain that reaches them.
                border_assigned = np.zeros(n, dtype=bool)
                border_owner = np.zeros(n, dtype=np.intp)
                for i in np.flatnonzero(core_mask):
                    for j in neighbor_lists[i]:
                        if not core_mask[j] and not border_assigned[j]:
                            border_assigned[j] = True
                            border_owner[j] = i
                num_chain_steps = int(core_mask.sum()) + int(border_assigned.sum())
                kernel_rounds = max(1, num_chain_steps // max(self.chain_length, 1))

                counts.distance_computations += distance_tests
                counts.union_ops += forest.num_unions
                counts.atomic_ops += collisions + int(border_assigned.sum())
                counts.kernel_launches += kernel_rounds

            # ------------------------------------------------------------ #
            # Collision resolution / final labelling on the host.
            # ------------------------------------------------------------ #
            with timer.phase("collision_resolution") as counts:
                roots = forest.roots()
                for b in np.flatnonzero(border_assigned):
                    roots[b] = roots[border_owner[b]]
                labels = labels_from_roots(roots, core_mask, assigned_mask=border_assigned)
                counts.bytes_moved += roots.nbytes
                counts.kernel_launches += 1
        finally:
            self.device.memory.free("dclust_grid")
            self.device.memory.free("dclust_candidate_buffers")
            self.device.memory.free("dclust_collision_matrix")

        return DBSCANResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            params=self.params,
            algorithm="cuda-dclust+",
            report=timer.report(),
            neighbor_counts=degrees,
        )


def cuda_dclust_plus(points: np.ndarray, eps: float, min_pts: int, **kwargs) -> DBSCANResult:
    """Functional convenience wrapper around :class:`CUDADClustPlus`."""
    return CUDADClustPlus(eps=eps, min_pts=min_pts, **kwargs).fit(points)
