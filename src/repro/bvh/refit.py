"""BVH refit and quality inspection.

Refit recomputes node bounds from primitive bounds without changing the tree
topology — the operation a BVH-based DBSCAN uses when the user changes ε and
the sphere AABBs grow or shrink.  Quality metrics (SAH cost, overlap) back
the ablation benchmarks that compare the LBVH and SAH builders.
"""

from __future__ import annotations

import numpy as np

from ..geometry.aabb import AABB, aabb_surface_area
from .node import BVH

__all__ = ["refit", "sah_cost", "leaf_occupancy"]


def refit(bvh: BVH, new_bounds: AABB) -> BVH:
    """Return a copy of ``bvh`` with node bounds recomputed from ``new_bounds``.

    The primitive order, leaf ranges and topology are preserved; only the
    per-primitive AABBs change (e.g. because ε changed).
    """
    new_lower = np.asarray(new_bounds.lower, dtype=np.float64)
    new_upper = np.asarray(new_bounds.upper, dtype=np.float64)
    if new_lower.shape[0] != bvh.num_primitives:
        raise ValueError("refit requires one bound per original primitive")

    node_lower = bvh.node_lower.copy()
    node_upper = bvh.node_upper.copy()

    # Recompute leaf bounds.  Leaf ranges are disjoint and cover the
    # primitive permutation exactly once, so ordered by start they tile
    # ``prim_indices`` and a segmented reduction handles every leaf at once.
    leaf_ids = np.flatnonzero(bvh.leaf_mask)
    order = np.argsort(bvh.prim_start[leaf_ids], kind="stable")
    leaf_ids = leaf_ids[order]
    starts = bvh.prim_start[leaf_ids]
    gathered_lower = new_lower[bvh.prim_indices]
    gathered_upper = new_upper[bvh.prim_indices]
    node_lower[leaf_ids] = np.minimum.reduceat(gathered_lower, starts, axis=0)
    node_upper[leaf_ids] = np.maximum.reduceat(gathered_upper, starts, axis=0)

    # Propagate upwards one tree level at a time, deepest level first.  An
    # internal node depends only on its two children, which sit exactly one
    # level below it, so each level is a single gather plus an elementwise
    # min/max — independent of how the builder numbered the nodes.
    levels = []
    nodes = np.array([bvh.root], dtype=np.intp)
    while nodes.size:
        nodes = nodes[~bvh.leaf_mask[nodes]]
        levels.append(nodes)
        nodes = bvh.children[nodes].ravel()
    for ids in reversed(levels):
        l, r = bvh.left[ids], bvh.right[ids]
        node_lower[ids] = np.minimum(node_lower[l], node_lower[r])
        node_upper[ids] = np.maximum(node_upper[l], node_upper[r])

    return BVH(
        node_lower=node_lower,
        node_upper=node_upper,
        left=bvh.left,
        right=bvh.right,
        prim_start=bvh.prim_start,
        prim_count=bvh.prim_count,
        prim_indices=bvh.prim_indices,
        prim_lower=new_lower,
        prim_upper=new_upper,
        builder=bvh.builder if bvh.builder.endswith("+refit") else bvh.builder + "+refit",
        leaf_size=bvh.leaf_size,
        build_stats=dict(bvh.build_stats),
    )


def sah_cost(bvh: BVH, *, traversal_cost: float = 1.0, intersection_cost: float = 1.0) -> float:
    """Surface-area-heuristic cost of the tree (lower is better).

    Computed as the classic estimate: the expected number of node visits and
    primitive tests for a random ray, weighted by the given per-operation
    costs and normalised by the root surface area.
    """
    root_area = aabb_surface_area(bvh.node_lower[:1], bvh.node_upper[:1])[0]
    if root_area <= 0:
        return 0.0
    areas = aabb_surface_area(bvh.node_lower, bvh.node_upper)
    internal = ~bvh.leaf_mask
    leaf = bvh.leaf_mask
    cost = traversal_cost * areas[internal].sum()
    cost += intersection_cost * (areas[leaf] * bvh.prim_count[leaf]).sum()
    return float(cost / root_area)


def leaf_occupancy(bvh: BVH) -> dict:
    """Summary statistics of primitives-per-leaf (used in ablation reports)."""
    counts = bvh.prim_count[bvh.leaf_mask]
    return {
        "num_leaves": int(counts.size),
        "min": int(counts.min()),
        "max": int(counts.max()),
        "mean": float(counts.mean()),
    }
