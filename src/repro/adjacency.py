"""CSR adjacency — the one adjacency form of the clustering pipeline.

Every neighbour backend answers stage-2 queries with a **CSR adjacency**: an
``indptr`` offset array of shape ``(num_queries + 1,)`` and an ``indices``
array holding, row by row, the ε-neighbour ids of each query.  Rows are
emitted in query order and each row's indices are sorted ascending, so the
representation is *canonical*: two backends that discover the same ε-pair
multiset produce byte-identical CSR arrays, regardless of traversal order.

Flat ``(query, neighbour)`` pair arrays would store the query id once per
edge — an O(n·k) intermediate that is pure redundancy on top of the
neighbour lists.  Backends instead produce the CSR chunk-by-chunk (a block
of queries at a time) and :func:`repro.dbscan.formation.form_clusters_csr`
consumes it directly, so the full ε-pair set never exists in memory.

The helpers here are deliberately dependency-free (NumPy only) so that every
layer — ``bvh``, ``rtcore``, ``neighbors``, ``dbscan``, ``partition``,
``streaming`` — can share them without import cycles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pairs_to_csr",
    "csr_row_ids",
    "expand_ranges",
    "concat_csr",
    "point_rows",
    "seeded_csr",
    "check_row_counts",
]


def pairs_to_csr(
    q: np.ndarray, p: np.ndarray, num_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Convert ``(query, neighbour)`` pair arrays to canonical CSR form.

    Rows are the query ids ``0 .. num_rows - 1``; each row's indices come out
    sorted ascending.  The triangle-mode launch uses it to rebuild its CSR
    after collapsing triangle hits onto their owning points.
    """
    q = np.asarray(q, dtype=np.intp)
    p = np.asarray(p, dtype=np.intp)
    order = np.lexsort((p, q))
    counts = np.bincount(q, minlength=num_rows)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, p[order]


def csr_row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row id of every entry of a CSR adjacency (``np.repeat`` of row ids)."""
    counts = np.diff(indptr)
    return np.repeat(np.arange(counts.shape[0], dtype=np.intp), counts)


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every ``(s, c)`` range, vectorised.

    The shared gather primitive of the wavefront traversal (leaf → primitive
    ranges) and the grid stencil (cell → point ranges).
    """
    counts = np.asarray(counts, dtype=np.intp)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    starts = np.asarray(starts, dtype=np.intp)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + (np.arange(total, dtype=np.intp) - offsets)


def concat_csr(
    parts: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate row-contiguous CSR fragments into one CSR adjacency.

    ``parts`` is a list of ``(indptr, indices)`` fragments whose rows are
    consecutive (fragment ``k`` holds the rows immediately following fragment
    ``k - 1``), which is exactly what a chunk-by-chunk producer emits.
    """
    if not parts:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp)
    indptrs, indexes = zip(*parts)
    offsets = np.cumsum([0] + [idx.shape[0] for idx in indexes])
    merged_ptr = np.concatenate(
        [np.asarray(ptr[:-1], dtype=np.int64) + off
         for ptr, off in zip(indptrs, offsets[:-1])]
        + [np.asarray([offsets[-1]], dtype=np.int64)]
    )
    return merged_ptr, np.concatenate(indexes)


def point_rows(rows, num_points: int) -> np.ndarray:
    """Validated int64 dataset point ids of a row-selected CSR (any order).

    A backend's ``neighbor_csr(rows=...)`` fills row ``i`` with the
    neighbours of point ``rows[i]``; the ids are range-checked here because
    they index the dataset and serve as the launch's self map.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError("rows must be a 1-D array of integer point ids")
    if rows.min() < 0 or rows.max() >= num_points:
        raise ValueError(f"rows must be point ids in [0, {num_points})")
    return np.ascontiguousarray(rows, dtype=np.int64)


def seeded_csr(row_counts, num_rows: int) -> dict:
    """``indptr`` and an unfilled ``indices`` sized by known per-row hit counts.

    A fill pass handed these buffers writes at most ``row_counts[i]`` ids
    into row ``i``, then reports its real hits to :func:`check_row_counts`.
    Returned as the ``indptr=`` / ``indices=`` keywords of the native kernels.
    """
    row_counts = np.asarray(row_counts, dtype=np.int64)
    if row_counts.shape != (num_rows,) or (row_counts < 0).any():
        raise ValueError("row_counts must hold one non-negative count per query")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    return {"indptr": indptr, "indices": np.empty(int(indptr[-1]), dtype=np.intp)}


def check_row_counts(hits: np.ndarray, row_counts) -> None:
    """Raise ``ValueError`` unless a seeded fill found ``row_counts`` hits per row."""
    if not np.array_equal(hits, row_counts):
        raise ValueError("row_counts differ from the launch's hit counts")

