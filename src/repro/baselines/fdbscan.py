"""FDBSCAN baseline (Prokopenko et al., the paper's primary comparator).

FDBSCAN is the algorithm RT-DBSCAN is derived from: a BVH-backed fixed-radius
search combined with a union–find cluster formation pass, with no stored
neighbour lists.  The crucial difference is *where* the BVH traversal runs —
FDBSCAN traverses its tree with shader-core code, while RT-DBSCAN hands the
traversal to the RT cores.  The implementation below therefore reuses the
same BVH substrate but charges every traversal step at the shader-core rate
of the cost model, and its BVH build at the cheaper "plain spatial build"
rate (the paper measures the OptiX sphere build to be ~2.5× more expensive).

The ``early_exit`` flag reproduces the optimisation discussed in Section VI-B:
core-point identification stops traversing as soon as ``min_pts`` neighbours
have been confirmed.  RT-DBSCAN cannot use this optimisation (OptiX would
need an AnyHit call per hit), which is exactly the trade-off Fig. 9 explores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.protocol import ClustererMixin
from ..api.registry import register_algorithm
from ..bvh.lbvh import build_lbvh
from ..bvh.traversal import point_query_counts_early_exit, point_query_csr
from ..dbscan.formation import form_clusters_csr
from ..dbscan.params import DBSCANParams, DBSCANResult
from ..geometry.aabb import AABB
from ..geometry.transforms import ensure_points3d
from ..perf.cost_model import OpCounts
from ..perf.timing import PhaseTimer
from ..rtcore.device import RTDevice
from ..rtcore.programs import SphereProgram

__all__ = ["FDBSCAN", "fdbscan"]


@register_algorithm(
    "fdbscan",
    description="FDBSCAN (Prokopenko et al.): shader-core BVH + union-find.",
)
@dataclass
class FDBSCAN(ClustererMixin):
    """FDBSCAN clusterer (shader-core BVH + union–find).

    Parameters
    ----------
    eps, min_pts:
        DBSCAN parameters.
    early_exit:
        Stop the stage-1 traversal of a point once ``min_pts`` neighbours are
        confirmed (Section VI-B).  Off by default to match the paper's main
        comparison, which targets the multi-run use case.
    device:
        The simulated GPU; FDBSCAN uses only its shader cores.
    leaf_size, chunk_size:
        BVH build / traversal batching parameters.
    """

    eps: float
    min_pts: int
    early_exit: bool = False
    device: RTDevice | None = None
    leaf_size: int = 4
    chunk_size: int = 16384

    def __post_init__(self) -> None:
        self.params = DBSCANParams(eps=self.eps, min_pts=self.min_pts)
        self.device = self.device or RTDevice()

    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster ``points`` with the FDBSCAN algorithm."""
        pts = ensure_points3d(points)
        n = pts.shape[0]
        eps = self.params.eps
        algorithm = "fdbscan-earlyexit" if self.early_exit else "fdbscan"
        timer = PhaseTimer(algorithm, self.device.cost_model)
        timer.metadata.update(
            {"eps": eps, "min_pts": self.params.min_pts, "num_points": n, "device": self.device.name}
        )

        confirm = SphereProgram(pts, eps, exclude_self=True).confirm(pts)

        # -------------------------------------------------------------- #
        # Index construction: a plain spatial BVH over the points (each
        # point's box is expanded by eps so a containment query at a point
        # finds every candidate within range, as ArborX does).
        # -------------------------------------------------------------- #
        build_seconds = self.device.cost_model.build_time_s(n, unit="sm")
        with timer.phase("bvh_build", simulated_seconds=build_seconds) as counts:
            bounds = AABB.from_spheres(pts, eps)
            bvh = build_lbvh(bounds, leaf_size=self.leaf_size)
            self.device.memory.allocate("fdbscan_bvh", bvh.memory_bytes())
            counts.bvh_build_prims = n
            counts.kernel_launches += 1

        try:
            # ------------------------------------------------------------ #
            # Stage 1 — core point identification (early exit optional).
            #
            # The early-exit optimisation terminates a point's depth-first
            # traversal as soon as ``min_pts`` neighbours have been confirmed
            # (Section VI-B).  The level-synchronous simulator always computes
            # the exact counts; when early exit is enabled the *charged* cost
            # is reduced analytically: a point with R >= minPts confirmed
            # neighbours among C candidates examines on average
            # ``C * minPts / R`` candidates before stopping, with a floor of
            # one root-to-leaf descent.
            # ------------------------------------------------------------ #
            with timer.phase("core_identification") as counts:
                if self.early_exit:
                    # The exact counts plus the per-query candidate histogram
                    # come from one counting traversal — the candidate pair
                    # set itself is never materialised.
                    cand_per_q = np.zeros(n, dtype=np.int64)
                    neighbor_counts, stats1 = point_query_counts_early_exit(
                        bvh, pts, confirm, min_count=None,
                        chunk_size=self.chunk_size, candidate_counts=cand_per_q,
                    )
                    frac = np.ones(n, dtype=np.float64)
                    reached = neighbor_counts >= self.params.min_pts
                    frac[reached] = self.params.min_pts / np.maximum(
                        neighbor_counts[reached], 1
                    )
                    charged_candidates = int(np.ceil((cand_per_q * frac).sum()))
                    depth_floor = n * bvh.depth
                    extra_visits = max(stats1.node_visits - depth_floor, 0)
                    charged_visits = depth_floor + int(
                        np.ceil(extra_visits * charged_candidates / max(stats1.candidates, 1))
                    )
                else:
                    neighbor_counts, stats1 = point_query_counts_early_exit(
                        bvh, pts, confirm, min_count=None, chunk_size=self.chunk_size
                    )
                    charged_candidates = stats1.candidates
                    charged_visits = stats1.node_visits
                counts.sm_node_visits += charged_visits
                counts.distance_computations += charged_candidates
                counts.kernel_launches += 1
                core_mask = neighbor_counts >= self.params.min_pts
                self.device.charge(
                    OpCounts(
                        sm_node_visits=charged_visits,
                        distance_computations=charged_candidates,
                        kernel_launches=1,
                    )
                )

            # ------------------------------------------------------------ #
            # Stage 2 — cluster formation with union-find.  Neighbourhoods
            # are recomputed (FDBSCAN stores nothing).
            # ------------------------------------------------------------ #
            with timer.phase("cluster_formation") as counts:
                indptr, indices, stats2 = point_query_csr(
                    bvh, pts, confirm, chunk_size=self.chunk_size
                )
                counts.sm_node_visits += stats2.node_visits
                counts.distance_computations += stats2.candidates
                counts.kernel_launches += 1

                formation = form_clusters_csr(indptr, indices, core_mask)
                counts.union_ops += formation.num_unions
                counts.atomic_ops += formation.num_atomics
                self.device.charge(
                    OpCounts(
                        sm_node_visits=stats2.node_visits,
                        distance_computations=stats2.candidates,
                        union_ops=formation.num_unions,
                        atomic_ops=formation.num_atomics,
                        kernel_launches=1,
                    )
                )
                labels = formation.labels
        finally:
            self.device.memory.free("fdbscan_bvh")

        return DBSCANResult(
            labels=labels,
            core_mask=core_mask,
            params=self.params,
            algorithm=algorithm,
            report=timer.report(),
            neighbor_counts=None if self.early_exit else neighbor_counts,
        )


@register_algorithm(
    "fdbscan-earlyexit",
    description="FDBSCAN with the Section VI-B early-exit traversal optimisation.",
)
def _fdbscan_early_exit(eps: float, min_pts: int, device=None, **kwargs) -> FDBSCAN:
    kwargs.setdefault("early_exit", True)
    return FDBSCAN(eps=eps, min_pts=min_pts, device=device, **kwargs)


def fdbscan(points: np.ndarray, eps: float, min_pts: int, **kwargs) -> DBSCANResult:
    """Functional convenience wrapper around :class:`FDBSCAN`."""
    return FDBSCAN(eps=eps, min_pts=min_pts, **kwargs).fit(points)
