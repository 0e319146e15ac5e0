"""G-DBSCAN baseline (Andrade et al.).

G-DBSCAN materialises the ε-neighbourhood graph of the whole dataset on the
GPU — a dense all-pairs distance pass fills per-point adjacency lists — and
then finds clusters by running level-synchronous breadth-first searches from
unvisited core points.  Its weakness, which the paper leans on, is memory:
the graph-construction pass and the adjacency lists do not fit in the 6 GB of
the RTX 2060 once the dataset grows past roughly 10^5 points, so the
simulated device raises :class:`~repro.perf.memory.DeviceMemoryError` in the
same regime (Section V-B1).

Cost accounting follows the GPU algorithm (all-pairs distance computations,
per-edge BFS work) even though the host-side implementation uses a KD-tree to
obtain the same adjacency lists without quadratic Python time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..api.protocol import ClustererMixin
from ..api.registry import register_algorithm
from ..dbscan.params import NOISE, UNCLASSIFIED, DBSCANParams, DBSCANResult, canonicalize_labels
from ..geometry.transforms import lift_to_3d, validate_points
from ..perf.memory import estimate_adjacency_bytes
from ..perf.timing import PhaseTimer
from ..rtcore.device import RTDevice

__all__ = ["GDBSCAN", "gdbscan"]


@register_algorithm(
    "g-dbscan",
    description="G-DBSCAN (Andrade et al.): materialised ε-graph + parallel BFS.",
)
@dataclass
class GDBSCAN(ClustererMixin):
    """G-DBSCAN clusterer (ε-graph construction + parallel BFS).

    Parameters
    ----------
    eps, min_pts:
        DBSCAN parameters.
    device:
        Simulated GPU (shader cores only).  The graph-construction working
        set is charged against its 6 GB memory budget.
    """

    eps: float
    min_pts: int
    device: RTDevice | None = None

    def __post_init__(self) -> None:
        self.params = DBSCANParams(eps=self.eps, min_pts=self.min_pts)
        self.device = self.device or RTDevice()

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster ``points``; raises ``DeviceMemoryError`` if the graph
        working set exceeds device memory (the behaviour the paper reports
        for datasets beyond ~100 K points)."""
        pts = lift_to_3d(validate_points(points))
        n = pts.shape[0]
        eps = self.params.eps
        timer = PhaseTimer("g-dbscan", self.device.cost_model)
        timer.metadata.update(
            {"eps": eps, "min_pts": self.params.min_pts, "num_points": n, "device": self.device.name}
        )

        try:
            # ------------------------------------------------------------ #
            # Graph construction.  The GPU kernel computes the full n x n
            # distance matrix to fill the adjacency lists; the dominant
            # device allocations are the pairwise working matrix and the
            # CSR adjacency.
            # ------------------------------------------------------------ #
            with timer.phase("graph_construction") as counts:
                # The all-pairs working matrix is what blows the memory budget.
                self.device.memory.allocate("gdbscan_pairwise_matrix", n * n)
                tree = cKDTree(pts)
                neighbor_lists = tree.query_ball_point(pts, r=eps)
                neighbors = [
                    np.setdiff1d(np.asarray(lst, dtype=np.intp), [i])
                    for i, lst in enumerate(neighbor_lists)
                ]
                degrees = np.asarray([len(nb) for nb in neighbors], dtype=np.int64)
                mean_degree = float(degrees.mean()) if n else 0.0
                self.device.memory.allocate(
                    "gdbscan_adjacency", estimate_adjacency_bytes(n, mean_degree)
                )
                counts.distance_computations += n * n
                counts.bytes_moved += n * n  # writing the boolean pairwise matrix
                counts.kernel_launches += 2  # degree kernel + adjacency fill kernel

            # ------------------------------------------------------------ #
            # Core identification is a by-product of the degree array.
            # ------------------------------------------------------------ #
            with timer.phase("core_identification") as counts:
                core_mask = degrees >= self.params.min_pts
                counts.kernel_launches += 1

            # ------------------------------------------------------------ #
            # Cluster identification: BFS over the ε-graph from every
            # unvisited core point (level-synchronous on the GPU).
            # ------------------------------------------------------------ #
            with timer.phase("cluster_identification") as counts:
                labels = np.full(n, UNCLASSIFIED, dtype=np.int64)
                cluster_id = 0
                edges_traversed = 0
                bfs_levels = 0
                for seed in range(n):
                    if labels[seed] != UNCLASSIFIED or not core_mask[seed]:
                        continue
                    labels[seed] = cluster_id
                    frontier = deque([seed])
                    while frontier:
                        bfs_levels += 1
                        next_frontier: deque[int] = deque()
                        while frontier:
                            u = frontier.popleft()
                            if not core_mask[u]:
                                continue
                            for v in neighbors[u]:
                                edges_traversed += 1
                                if labels[v] == UNCLASSIFIED or labels[v] == NOISE:
                                    labels[v] = cluster_id
                                    next_frontier.append(int(v))
                        frontier = next_frontier
                    cluster_id += 1
                labels[labels == UNCLASSIFIED] = NOISE
                counts.distance_computations += 0
                counts.bytes_moved += edges_traversed * 4
                counts.kernel_launches += bfs_levels
                counts.union_ops += edges_traversed
        finally:
            self.device.memory.free("gdbscan_pairwise_matrix")
            self.device.memory.free("gdbscan_adjacency")

        return DBSCANResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            params=self.params,
            algorithm="g-dbscan",
            report=timer.report(),
            neighbor_counts=degrees,
        )


def gdbscan(points: np.ndarray, eps: float, min_pts: int, **kwargs) -> DBSCANResult:
    """Functional convenience wrapper around :class:`GDBSCAN`."""
    return GDBSCAN(eps=eps, min_pts=min_pts, **kwargs).fit(points)
