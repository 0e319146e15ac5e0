"""Uniform-grid fixed-radius neighbour search.

CUDA-DClust+ (and the DenseBox family the paper cites) index the dataset with
a Cartesian grid whose cell width equals ε: a point's ε-neighbourhood can
only contain points from its own cell and the immediately adjacent cells.

The index is stored as a **flat CSR cell table** — exactly how the GPU
implementations lay it out: point ids sorted by flattened cell id
(``order``), the sorted array of occupied cell ids (``cell_table``) and an
offset array (``cell_indptr``) delimiting each occupied cell's slice of
``order``.  Cell lookups are binary searches (``np.searchsorted``) and the
3^d-stencil candidate gather is fully vectorised over whole query batches —
there is no per-cell Python dictionary or ``itertools.product`` loop
anywhere on the query path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..adjacency import expand_ranges

__all__ = ["UniformGrid"]


@dataclass
class UniformGrid:
    """A uniform grid over 2D/3D points with cell width equal to the query radius.

    Parameters
    ----------
    points:
        ``(n, d)`` points with d in {2, 3}.
    cell_size:
        Edge length of each grid cell; for DBSCAN indexes this is ε.

    Attributes
    ----------
    order:
        Point ids sorted by flattened cell id; each occupied cell owns a
        contiguous slice.
    cell_table:
        Sorted flattened ids of the occupied cells.
    cell_indptr:
        ``(num_occupied + 1,)`` offsets into ``order`` delimiting each
        occupied cell's slice.
    """

    points: np.ndarray
    cell_size: float
    origin: np.ndarray = field(init=False)
    dims: np.ndarray = field(init=False)
    cell_ids: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)
    cell_table: np.ndarray = field(init=False)
    cell_indptr: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.points.shape[1] not in (2, 3):
            raise ValueError("UniformGrid supports 2D and 3D points only")
        self.origin = self.points.min(axis=0)
        extent = self.points.max(axis=0) - self.origin
        self.dims = np.maximum(np.floor(extent / self.cell_size).astype(np.int64) + 1, 1)
        coords = self._cell_coords(self.points)
        self.cell_ids = self._flatten(coords)
        self.order = np.argsort(self.cell_ids, kind="stable")
        sorted_ids = self.cell_ids[self.order]
        self.cell_table, counts = np.unique(sorted_ids, return_counts=True)
        self.cell_indptr = np.zeros(self.cell_table.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cell_indptr[1:])
        # The 3^d stencil offsets, flattened once for the vectorised gather.
        d = self.points.shape[1]
        self._stencil = np.array(list(product((-1, 0, 1), repeat=d)), dtype=np.int64)

    # ------------------------------------------------------------------ #
    def _cell_coords(self, pts: np.ndarray) -> np.ndarray:
        coords = np.floor((pts - self.origin) / self.cell_size).astype(np.int64)
        return np.clip(coords, 0, self.dims - 1)

    def _flatten(self, coords: np.ndarray) -> np.ndarray:
        if self.points.shape[1] == 2:
            return coords[:, 0] * self.dims[1] + coords[:, 1]
        return (coords[:, 0] * self.dims[1] + coords[:, 1]) * self.dims[2] + coords[:, 2]

    # ------------------------------------------------------------------ #
    def stencil_ranges(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate slices of ``order`` for every query's 3^d stencil.

        For a batch of ``m`` query points returns ``(starts, counts)``, both
        of shape ``(m, 3^d)``: entry ``[i, s]`` delimits the slice of
        ``order`` holding the points of the ``s``-th stencil cell around
        query ``i`` (count 0 for out-of-grid or unoccupied cells).  One
        vectorised binary search per batch — no per-cell Python.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        coords = self._cell_coords(pts)
        ncoord = coords[:, None, :] + self._stencil[None, :, :]
        valid = ((ncoord >= 0) & (ncoord < self.dims)).all(axis=2)
        flat = ncoord.reshape(-1, pts.shape[1])
        # Clip before flattening so invalid coords still index safely; their
        # counts are zeroed by the validity mask below.
        nid = self._flatten(np.clip(flat, 0, self.dims - 1))
        pos = np.searchsorted(self.cell_table, nid)
        pos[pos == self.cell_table.size] = 0  # safe index; masked as unoccupied below
        hit = (self.cell_table[pos] == nid) & valid.reshape(-1)
        starts = np.where(hit, self.cell_indptr[pos], 0)
        counts = np.where(hit, self.cell_indptr[pos + 1] - self.cell_indptr[pos], 0)
        shape = (pts.shape[0], self._stencil.shape[0])
        return starts.reshape(shape), counts.reshape(shape)

    def candidate_neighbors(self, query: np.ndarray) -> np.ndarray:
        """Point indices in the 3^d cells surrounding ``query`` (unfiltered)."""
        starts, counts = self.stencil_ranges(np.asarray(query, dtype=np.float64).reshape(1, -1))
        return self.order[expand_ranges(starts.ravel(), counts.ravel())]

    def memory_bytes(self) -> int:
        """Approximate device footprint of the grid index."""
        return int(
            self.order.nbytes + self.cell_ids.nbytes
            + self.cell_table.nbytes + self.cell_indptr.nbytes
        )
