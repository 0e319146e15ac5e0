"""Halo-based boundary merge for tiled clustering.

Each tile of a :class:`~repro.partition.tiled.TiledRTDBSCAN` run produces

* exact ε-neighbour counts (and hence exact core flags) for its *owned*
  points — exact because the tile's halo contains every point within ε of an
  owned point, and
* the complete confirmed ε-adjacency of its owned *core* points as a
  **shard CSR** (``indptr``/``indices``): row ``i`` holds the neighbours of
  ``owned[core_mask][i]``, mapped back to global indices.

Because ownership is a partition, the shard CSRs concatenate into a
*segmented* CSR that reconstructs **exactly** the core rows of the global
adjacency an untiled run discovers — the only rows cluster formation reads:
a global pair ``(q, p)`` with ``q`` core appears once, in the row
contributed by the unique tile that owns ``q`` (its partner ``p`` is
locally visible there, owned or halo).  Likewise the per-tile core flags
assemble the exact global core mask.  The merge hands the segmented
CSR — rows annotated with their global ids, no per-pair expansion, no
reshuffling — straight to the same
:func:`repro.dbscan.formation.form_clusters_csr` stage-2 pass every backend
uses: core–core edges — including the cross-halo boundary edges — are
unioned in one batched :class:`~repro.dbscan.disjoint_set.ParallelDisjointSet`
pass, border points attach to their lowest-indexed core neighbour, and
labels are canonicalised to the smallest-member numbering.

**Equivalence argument.**  ``form_clusters_csr`` is a deterministic function
of the core rows' pair *multiset* and the core mask: the batched min-hooking
union is order-independent (each iteration hooks every still-spanning edge's
larger root onto the smaller simultaneously), border attachment sorts
candidates before deduplicating, and the final numbering depends only on
cluster membership.  Since the tiled run hands it the identical core-row pair
multiset and the identical core mask as an untiled run, the labels are
**bit-identical** — not merely equivalent up to renumbering.  The
union/atomic operation counts charged to the cost model are identical too,
for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..adjacency import concat_csr
from ..dbscan.formation import form_clusters_csr

__all__ = ["MergeResult", "merge_tiles"]


@dataclass
class MergeResult:
    """Outcome of the boundary merge across all tiles."""

    #: canonical global labels (identical to an untiled run).
    labels: np.ndarray
    #: exact global core mask assembled from per-tile owned flags.
    core_mask: np.ndarray
    #: exact global ε-neighbour counts (self excluded).
    neighbor_counts: np.ndarray
    #: union (hook) operations performed — for the device cost model.
    num_unions: int
    #: atomic border attachments performed — for the device cost model.
    num_atomics: int
    #: confirmed pairs from a core point to a point owned by another tile:
    #: the cross-tile edges the merge consumes (non-core rows are not filled).
    num_boundary_pairs: int


def merge_tiles(num_points: int, tile_results) -> MergeResult:
    """Stitch per-tile shard CSRs into the exact global labelling.

    Parameters
    ----------
    num_points:
        Total number of dataset points.
    tile_results:
        Iterables with the per-tile fields produced by the tile worker:
        ``owned`` (global indices), ``neighbor_counts`` / ``core_mask``
        (aligned with ``owned``), ``indptr`` / ``indices`` (the shard CSR of
        the owned core points, with global neighbour ids) and
        ``num_boundary_pairs``.
    """
    core_mask = np.zeros(num_points, dtype=bool)
    neighbor_counts = np.zeros(num_points, dtype=np.int64)
    rows_parts: list[np.ndarray] = []
    csr_parts: list[tuple[np.ndarray, np.ndarray]] = []
    boundary = 0
    for res in tile_results:
        core_mask[res.owned] = res.core_mask
        neighbor_counts[res.owned] = res.neighbor_counts
        rows_parts.append(np.asarray(res.owned, dtype=np.intp)[res.core_mask])
        csr_parts.append((res.indptr, res.indices))
        boundary += int(res.num_boundary_pairs)

    indptr, indices = concat_csr(csr_parts)
    rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=np.intp)

    formation = form_clusters_csr(indptr, indices, core_mask, rows=rows)
    return MergeResult(
        labels=formation.labels,
        core_mask=core_mask,
        neighbor_counts=neighbor_counts,
        num_unions=formation.num_unions,
        num_atomics=formation.num_atomics,
        num_boundary_pairs=boundary,
    )
