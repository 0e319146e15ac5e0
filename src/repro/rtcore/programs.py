"""The sphere Intersection program and its one launch function.

The OptiX pipeline (Fig. 2 of the paper) is assembled from user programs:
RayGen generates rays, Intersection tests a ray against a custom primitive,
AnyHit records every hit, ClosestHit reports the nearest hit and Miss handles
rays that hit nothing.  BVH build and traversal are fixed-function and run on
the RT cores.  RT-DBSCAN binds only RayGen and Intersection (Section IV
disables AnyHit and ClosestHit to avoid their overhead), so the simulated
pipeline models just those two: a launch's query points play RayGen, and
:class:`SphereProgram` is the paper's sphere Intersection program
(Algorithm 2, lines 5–8) as one typed record.  The triangle-mode ablation's
AnyHit cost is charged by the pipeline itself.

:func:`launch_sphere` is the only place a sphere launch picks its kernel
tier: the native ``bvh_sphere`` DFS kernel when the compiled tier is active,
else the numpy wavefront kernels of :mod:`repro.bvh.traversal` with
:meth:`SphereProgram.confirm` as their callback.  Both tiers return
byte-identical hits and operation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..adjacency import check_row_counts, seeded_csr
from ..bvh.traversal import TraversalStats, point_query_counts_early_exit, point_query_csr
from ..native import dispatch as native_dispatch

__all__ = ["SphereProgram", "launch_sphere"]


@dataclass
class SphereProgram:
    """The sphere Intersection program: confirm a hit within ``radius``.

    A candidate primitive ``p`` of query ``q`` is a hit when
    ``|points[q] - centers[p]|² <= radius * radius``; the filters below
    mirror the native kernel's arguments one for one.

    Parameters
    ----------
    centers:
        ``(n, 3)`` sphere centres (the lifted data points).
    radius:
        The ε radius shared by all spheres.  ``r2`` is computed from it once,
        as ``radius * radius``, and every tier compares against that value.
    exclude_self:
        Reject ``p == q``: the queries are the centres themselves (the
        paper's ``q != s`` filter).
    self_map:
        Reject ``p == self_map[q]``: query ``q`` is the centre of sphere
        ``self_map[q]`` (streaming slot queries).  Ignored when
        ``exclude_self`` is set, as in the kernel.
    active:
        Boolean mask over the spheres; inactive (parked) spheres never hit.
    owners:
        Triangle mode: primitive ``p`` tessellates sphere ``owners[p]``, and
        every test above applies to the owner.  The native kernel has no
        owner map, so these launches always run on the numpy tier.
    """

    centers: np.ndarray
    radius: float
    exclude_self: bool = False
    self_map: np.ndarray | None = None
    active: np.ndarray | None = None
    owners: np.ndarray | None = None
    r2: float = field(init=False)

    def __post_init__(self) -> None:
        radius = float(self.radius)
        self.r2 = radius * radius

    def confirm(self, points: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The program bound to a launch's query ``points``, for the numpy tier.

        The returned callable maps candidate ``(query_idx, prim_idx)`` arrays
        to a boolean hit array.
        """
        centers, r2, owners = self.centers, self.r2, self.owners
        exclude_self, self_map, active = self.exclude_self, self.self_map, self.active

        def intersection(query_idx: np.ndarray, prim_idx: np.ndarray) -> np.ndarray:
            target = prim_idx if owners is None else owners[prim_idx]
            d = points[query_idx] - centers[target]
            hit = np.einsum("ij,ij->i", d, d) <= r2
            if exclude_self:
                hit &= query_idx != target
            elif self_map is not None:
                hit &= self_map[query_idx] != target
            if active is not None:
                hit &= active[target]
            return hit

        return intersection


def launch_sphere(bvh, points: np.ndarray, program: SphereProgram, *, collect: bool,
                  chunk_size: int = 16384, row_counts: np.ndarray | None = None):
    """One ε-ray per row of ``points`` against ``bvh``, confirmed by ``program``.

    Returns ``(counts, traversal)``, or the canonical CSR adjacency
    ``(indptr, indices, traversal)`` when ``collect`` is set.  On the native
    tier a count pass sizes the CSR and a fill pass writes it.  A CSR launch
    handed the rows' hit counts as ``row_counts`` (from an earlier count
    launch) runs the fill pass alone; on either tier it raises
    ``ValueError`` if the hits differ from them.  ``chunk_size`` batches the
    numpy tier's frontier.
    """
    nk = native_dispatch.kernels() if program.owners is None else None
    seeded = collect and row_counts is not None
    if nk is not None:
        qpts = np.ascontiguousarray(points)
        nq = qpts.shape[0]
        args = (qpts, qpts, bvh, program.centers, program.r2)
        filters = dict(
            exclude_self=program.exclude_self, self_map=program.self_map, active=program.active
        )
        counts = np.zeros(nq, dtype=np.int64)
        stats = np.zeros(5, dtype=np.int64)
        # Known row counts size the CSR up front, so the first pass fills it.
        csr = seeded_csr(row_counts, nq) if seeded else {}
        if nk.bvh_sphere(*args, row_counts=counts, stats=stats, **csr, **filters):
            node_visits, leaf_visits, candidates, confirmed, levels = map(int, stats)
            traversal = TraversalStats(
                queries=nq, node_visits=node_visits, leaf_visits=leaf_visits,
                candidates=candidates, confirmed=confirmed, levels=levels,
            )
            if not collect:
                return counts, traversal
            if seeded:
                check_row_counts(counts, row_counts)
            else:
                csr = seeded_csr(counts, nq)
                nk.bvh_sphere(*args, **csr, **filters)
            return csr["indptr"], csr["indices"], traversal
    confirm = program.confirm(points)
    if not collect:
        return point_query_counts_early_exit(bvh, points, confirm, chunk_size=chunk_size)
    indptr, indices, traversal = point_query_csr(bvh, points, confirm, chunk_size=chunk_size)
    if seeded:
        check_row_counts(np.diff(indptr), row_counts)
    return indptr, indices, traversal
