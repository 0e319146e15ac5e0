"""Stage-2 cluster formation from confirmed ε-adjacency (Algorithm 3, lines 7-18).

Shared by batch RT-DBSCAN (on every neighbour backend), the tiled partition
merge and :meth:`~repro.dbscan.params.DBSCANResult.refit`: given the
confirmed ε-adjacency and the core mask, merge core–core pairs in a
union–find forest, attach border points deterministically, and emit the
canonical labelling.  Keeping this in one place is what guarantees that a
re-labelling with a different ``min_pts`` — or a run on a different search
substrate — produces bit-identical labels to a fresh fit.

:func:`form_clusters_csr` consumes the CSR adjacency the backends produce
(see :mod:`repro.adjacency`) **directly**, walking the rows in bounded chunks
and expanding only the edges the forest actually needs (core–core union
edges and border attachments) — the flat ``(q, p)`` pair arrays are never
materialised.  Only core rows expand anything, so stage 2 hands it just
those: RT-DBSCAN, the tile workers and ``refit`` fill the core points' rows
with ``neighbor_csr(rows=core_ids, ...)`` and pass ``rows=core_ids`` here.
The paper's stage 2 relaunches every query; the simulated device is still
charged that full launch, by the callers.

The result is a deterministic function of the pair *multiset* and the core
mask — the batched min-hooking union is order-independent, border attachment
reduces to "lowest-indexed neighbouring core wins", and the final numbering
depends only on cluster membership — so any row order or segmentation of the
same adjacency yields identical labels *and identical union/atomic operation
counts*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..adjacency import expand_ranges
from .disjoint_set import ParallelDisjointSet
from .labels import labels_from_roots

__all__ = ["FormationResult", "form_clusters_csr"]

#: CSR rows processed per expansion step — bounds the transient edge buffers.
_ROW_CHUNK = 262_144


@dataclass
class FormationResult:
    """Outcome of one cluster-formation pass."""

    #: canonical labels (clusters numbered by smallest member, noise = -1).
    labels: np.ndarray
    #: union (hook) operations performed — for the device cost model.
    num_unions: int
    #: atomic border attachments performed — for the device cost model.
    num_atomics: int


def form_clusters_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    core_mask: np.ndarray,
    *,
    rows: np.ndarray | None = None,
) -> FormationResult:
    """Form clusters directly from a CSR ε-adjacency.

    Only rows whose query point is a core point expand clusters: core–core
    pairs are unioned, and border points are attached to the lowest-indexed
    neighbouring core's cluster — equivalent to launching the core rays in
    index order, which keeps the assignment independent of traversal order
    (and therefore independent of the neighbour backend).

    Parameters
    ----------
    indptr, indices:
        The CSR adjacency.  Rows default to dataset points ``0 .. n-1``.
    core_mask:
        ``(n,)`` boolean core flags over the *global* point ids.
    rows:
        Optional global point id of each CSR row — the segmented form stage
        2 hands over (the core rows alone; the tiled merge concatenates each
        shard's, in any order).  ``None`` means row ``i`` is point ``i``.
        Rows absent from the CSR count as empty.

    Memory note: the core–core edge list *is* materialised here — it is the
    required input of the single batched ``union_edges`` call (splitting the
    unions into chunks would change the hook counts the cost model charges).
    What is avoided is everything beyond that: candidate arrays, the
    redundant flat query column for non-core rows, and any re-sorting of the
    adjacency; the ``_ROW_CHUNK`` loop additionally bounds the transient
    expansion buffers of each filtering step.
    """
    core_mask = np.asarray(core_mask, dtype=bool)
    n = core_mask.shape[0]
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.intp)
    num_rows = indptr.shape[0] - 1
    row_ids = None if rows is None else np.asarray(rows, dtype=np.intp)

    ua: list[np.ndarray] = []
    ub: list[np.ndarray] = []
    bc: list[np.ndarray] = []
    bp: list[np.ndarray] = []
    for lo in range(0, num_rows, _ROW_CHUNK):
        hi = min(num_rows, lo + _ROW_CHUNK)
        chunk_rows = (
            np.arange(lo, hi, dtype=np.intp) if row_ids is None else row_ids[lo:hi]
        )
        counts = indptr[lo + 1 : hi + 1] - indptr[lo:hi]
        core_rows = core_mask[chunk_rows]
        if not core_rows.any():
            continue
        cq = np.repeat(chunk_rows[core_rows], counts[core_rows])
        # Gather the core rows' index slices without touching the others.
        cp = indices[expand_ranges(indptr[lo:hi][core_rows], counts[core_rows])]

        both_core = core_mask[cp]
        ua.append(cq[both_core])
        ub.append(cp[both_core])
        bc.append(cp[~both_core])
        bp.append(cq[~both_core])

    empty = np.empty(0, dtype=np.intp)
    forest = ParallelDisjointSet(n)
    forest.union_edges(
        np.concatenate(ua) if ua else empty, np.concatenate(ub) if ub else empty
    )
    border_children = np.concatenate(bc) if bc else empty
    border_parents = np.concatenate(bp) if bp else empty
    if border_children.size:
        order = np.lexsort((border_parents, border_children))
        border_children = border_children[order]
        border_parents = border_parents[order]
    forest.attach(border_children, border_parents)

    assigned = np.zeros(n, dtype=bool)
    assigned[border_children] = True
    return FormationResult(
        labels=labels_from_roots(forest.roots(), core_mask, assigned_mask=assigned),
        num_unions=forest.num_unions,
        num_atomics=forest.num_atomics,
    )
