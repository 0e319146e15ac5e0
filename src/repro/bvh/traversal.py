"""Batched BVH traversal kernels — the coherent wavefront.

The RT-DBSCAN reduction turns every neighbourhood query into an
infinitesimally short ray, which behaves exactly like a *point* query against
the BVH: a node can only contribute hits if the query point lies inside the
node's box.  The kernels below therefore traverse the hierarchy with a
level-synchronous frontier of ``(query, node)`` pairs and vectorise the
containment tests over the whole frontier — the software analogue of the
wavefront the RT cores would process in hardware.

Wavefront coherence
-------------------
Within each launch chunk the queries are **sorted by Morton code** before
traversal (the scheduling trick the RT cores' ray-coherence hardware
exploits): spatially adjacent queries then walk the same subtrees at the same
level, so the frontier's node gathers hit runs of identical nodes and the
surviving-query masks stay dense instead of fragmenting.  The per-query visit
*set* is a property of the tree alone, so the reordering changes none of the
operation counts the cost model charges — only the host-side memory-access
pattern.  Child links and the leaf mask are precomputed structure-of-arrays
lookups on :class:`~repro.bvh.node.BVH` (``children``, ``leaf_mask``), so a
frontier expansion is a single fancy-index gather per level.

:func:`point_query_csr` is the stage-2 workhorse: it confirms candidates
chunk-by-chunk with the caller's Intersection program and emits a canonical
CSR adjacency directly, so the full candidate pair set — typically several
times the confirmed set — never exists in memory.
:func:`point_query_counts_early_exit` is its counting twin for stage 1.

Every kernel reports a :class:`TraversalStats` record with the operation
counts the device timing model (``repro.perf``) converts into simulated
execution time: box tests (node visits), leaf visits, and intersection-program
invocations (candidate primitive checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..geometry.morton import morton_order
from .node import BVH

__all__ = [
    "TraversalStats",
    "point_query_counts_early_exit",
    "point_query_csr",
]

#: below this many queries a Morton sort costs more than the coherence wins.
_COHERENCE_MIN_QUERIES = 1024


@dataclass
class TraversalStats:
    """Operation counts accumulated over one or more traversal launches."""

    queries: int = 0
    node_visits: int = 0
    leaf_visits: int = 0
    candidates: int = 0
    confirmed: int = 0
    levels: int = 0

    def merge(self, other: "TraversalStats") -> "TraversalStats":
        self.queries += other.queries
        self.node_visits += other.node_visits
        self.leaf_visits += other.leaf_visits
        self.candidates += other.candidates
        self.confirmed += other.confirmed
        self.levels = max(self.levels, other.levels)
        return self

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "node_visits": self.node_visits,
            "leaf_visits": self.leaf_visits,
            "candidates": self.candidates,
            "confirmed": self.confirmed,
            "levels": self.levels,
        }


def _expand_leaf_ranges(bvh: BVH, leaf_nodes: np.ndarray) -> np.ndarray:
    """Indices into ``bvh.prim_indices`` for the slices owned by ``leaf_nodes``."""
    counts = bvh.prim_count[leaf_nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    starts = bvh.prim_start[leaf_nodes]
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.repeat(starts, counts) + (np.arange(total) - offsets)
    return idx


def _contains(bvh: BVH, points: np.ndarray, q: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    p = points[q]
    lo = bvh.node_lower[nodes]
    hi = bvh.node_upper[nodes]
    # Column-chained compare-and-accumulate: no (k, 3) boolean temporaries
    # and no axis reduction — the frontier's hottest few lines.
    keep = p[:, 0] >= lo[:, 0]
    keep &= p[:, 0] <= hi[:, 0]
    keep &= p[:, 1] >= lo[:, 1]
    keep &= p[:, 1] <= hi[:, 1]
    keep &= p[:, 2] >= lo[:, 2]
    keep &= p[:, 2] <= hi[:, 2]
    return keep


def _coherent_chunk(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Query ids of one launch chunk, Morton-sorted for traversal coherence."""
    q = np.arange(lo, hi, dtype=np.intp)
    if hi - lo >= _COHERENCE_MIN_QUERIES:
        q = q[morton_order(points[lo:hi])]
    return q


def _traverse_chunk(
    bvh: BVH,
    points: np.ndarray,
    q: np.ndarray,
    stats: TraversalStats,
    on_leaf: Callable[[np.ndarray, np.ndarray], None],
    prune: Callable[[np.ndarray], np.ndarray] | None = None,
) -> None:
    """The level-synchronous frontier core shared by every point-query kernel.

    Walks one launch chunk's ``(query, node)`` frontier, charges the node /
    leaf / candidate counters, and hands each level's candidate expansion to
    ``on_leaf(rep_q, rep_p)`` — the only part that differs between the
    counting and CSR kernels.  ``prune`` (early exit) filters
    the next level's frontier by query id.
    """
    leaf_mask = bvh.leaf_mask
    children = bvh.children
    nodes = np.zeros(q.shape[0], dtype=np.intp)
    level = 0
    while q.size:
        level += 1
        stats.node_visits += int(q.size)
        keep = _contains(bvh, points, q, nodes)
        q, nodes = q[keep], nodes[keep]
        if q.size == 0:
            break
        leaf = leaf_mask[nodes]
        if leaf.any():
            leaf_q = q[leaf]
            leaf_nodes = nodes[leaf]
            stats.leaf_visits += int(leaf_nodes.size)
            idx = _expand_leaf_ranges(bvh, leaf_nodes)
            rep_q = np.repeat(leaf_q, bvh.prim_count[leaf_nodes])
            rep_p = bvh.prim_indices[idx]
            stats.candidates += int(rep_p.size)
            on_leaf(rep_q, rep_p)
        internal = ~leaf
        inodes = nodes[internal]
        q = np.repeat(q[internal], 2)
        nodes = children[inodes].reshape(-1)
        if prune is not None and q.size:
            still_active = prune(q)
            q, nodes = q[still_active], nodes[still_active]
    stats.levels = max(stats.levels, level)


def point_query_counts_early_exit(
    bvh: BVH,
    points: np.ndarray,
    confirm: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    min_count: int | None = None,
    chunk_size: int = 16384,
    candidate_counts: np.ndarray | None = None,
) -> tuple[np.ndarray, TraversalStats]:
    """Count confirmed hits per query, optionally stopping at ``min_count``.

    This is the traversal mode FDBSCAN's early-exit optimisation relies on
    (Section VI-B): a query stops traversing as soon as it has confirmed
    ``min_count`` neighbours.  With ``min_count=None`` the traversal runs to
    completion and returns exact counts.

    Parameters
    ----------
    confirm:
        Callback mapping candidate ``(query_idx, prim_idx)`` arrays to a
        boolean array of confirmed hits (the Intersection-program test).
    candidate_counts:
        Optional ``(nq,)`` int64 array accumulating the number of candidate
        primitives examined per query — the per-query breakdown FDBSCAN's
        early-exit cost analysis needs, gathered here so callers never have
        to materialise the candidate pair set just to histogram it.

    Returns
    -------
    (counts, stats)
        ``counts[i]`` is the number of confirmed hits for query ``i``
        (saturating once ``min_count`` is reached, if given).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    nq = points.shape[0]
    counts = np.zeros(nq, dtype=np.int64)
    stats = TraversalStats(queries=nq)

    def on_leaf(rep_q: np.ndarray, rep_p: np.ndarray) -> None:
        if candidate_counts is not None:
            np.add.at(candidate_counts, rep_q, 1)
        if rep_p.size:
            ok = np.asarray(confirm(rep_q, rep_p), dtype=bool)
            stats.confirmed += int(ok.sum())
            np.add.at(counts, rep_q[ok], 1)

    prune = None
    if min_count is not None:
        def prune(q: np.ndarray) -> np.ndarray:
            return counts[q] < min_count

    for lo_q in range(0, nq, chunk_size):
        hi_q = min(nq, lo_q + chunk_size)
        _traverse_chunk(
            bvh, points, _coherent_chunk(points, lo_q, hi_q), stats, on_leaf, prune
        )
    return counts, stats


def point_query_csr(
    bvh: BVH,
    points: np.ndarray,
    confirm: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    chunk_size: int = 16384,
) -> tuple[np.ndarray, np.ndarray, TraversalStats]:
    """Confirmed-hit CSR adjacency, built chunk-by-chunk.

    Every candidate is confirmed with the caller's Intersection program as
    soon as its chunk's traversal discovers it, and each chunk's confirmed
    hits are canonicalised (rows in query order, indices sorted ascending)
    before the next chunk launches.  Peak intermediate memory is therefore
    one chunk's candidates plus the confirmed adjacency itself — the full
    ``(query, primitive)`` candidate set is never materialised.

    Returns
    -------
    (indptr, indices, stats)
        Canonical CSR over the ``nq`` query rows; ``stats`` carries the same
        operation counts :func:`point_query_counts_early_exit` charges
        without ``min_count`` (the traversal is identical).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    nq = points.shape[0]
    stats = TraversalStats(queries=nq)
    row_counts = np.zeros(nq, dtype=np.int64)
    parts: list[np.ndarray] = []

    for lo_q in range(0, nq, chunk_size):
        hi_q = min(nq, lo_q + chunk_size)
        hit_q: list[np.ndarray] = []
        hit_p: list[np.ndarray] = []

        def on_leaf(rep_q: np.ndarray, rep_p: np.ndarray) -> None:
            if rep_p.size:
                ok = np.asarray(confirm(rep_q, rep_p), dtype=bool)
                stats.confirmed += int(ok.sum())
                hit_q.append(rep_q[ok])
                hit_p.append(rep_p[ok])

        _traverse_chunk(bvh, points, _coherent_chunk(points, lo_q, hi_q), stats, on_leaf)

        if hit_q:
            cq = np.concatenate(hit_q)
            cp = np.concatenate(hit_p)
            order = np.lexsort((cp, cq))
            row_counts[lo_q:hi_q] = np.bincount(cq - lo_q, minlength=hi_q - lo_q)
            parts.append(cp[order])

    indptr = np.zeros(nq + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
    return indptr, indices, stats
