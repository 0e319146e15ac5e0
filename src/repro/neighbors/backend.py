"""Pluggable fixed-radius neighbour backends.

:class:`NeighborBackend` is the substrate contract RT-DBSCAN's Algorithm 3
actually depends on: build an index over the dataset once, then answer

* ``neighbor_counts()`` — ε-neighbour count per point (stage 1), and
* ``neighbor_csr()``    — the confirmed ε-adjacency in canonical CSR form
  (see :mod:`repro.adjacency`),

with the dataset's own points as the default queries.  A query drops only
its own point id (the paper's ``q != s`` filter), tested inside each
kernel's candidate loop: dataset queries carry ``arange(n)`` as their
``self_map``, row fills their rows, and external queries carry none.
Stage 2 calls ``neighbor_csr(rows=core_ids, row_counts=counts[core_ids])``:
only the core points' rows, which is all cluster formation reads.  Those
rows equal the matching rows of ``neighbor_csr()`` byte for byte; the
sphere launches (rt, kdtree) and the grid size them from the stage-1 counts
and run one fill pass.  Every query's stats carry its own operation counts
and their simulated seconds; RT-DBSCAN records the paper's stage-2 relaunch
as the stage-1 counts instead of the rows fill's.
Every backend produces the CSR
**chunk-by-chunk** — a block of queries at a time — so the full ε-pair set is
never materialised as an intermediate; peak memory is one block's candidate
working set plus the adjacency itself.

The RT-core ray query of Algorithm 2
(:class:`~repro.neighbors.rt_find.RTNeighborFinder`) is one implementation;
this module adds three host-side implementations behind the same protocol —
a uniform grid, a KD-tree and the exact brute-force oracle — so the same
clustering pipeline runs on any substrate.  All backends return *identical*
adjacencies (byte-identical CSR arrays, since the form is canonical), which
is what makes ``RTDBSCAN(backend=...)`` label-equivalent across substrates;
they differ only in the operations their stats record for the device cost
model (CPU backends record shader-core work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..adjacency import check_row_counts, expand_ranges, point_rows, seeded_csr
from ..api.registry import register_backend
from ..geometry.transforms import ensure_points3d
from ..native import dispatch as native_dispatch
from ..perf.cost_model import OpCounts
from ..rtcore.counters import LaunchStats
from ..rtcore.device import RTDevice
from ..rtcore.programs import SphereProgram, launch_sphere
from .brute import pairwise_within_blocks
from .grid import UniformGrid

__all__ = [
    "NeighborBackend",
    "BruteNeighborBackend",
    "GridNeighborBackend",
    "KDTreeNeighborBackend",
]


@runtime_checkable
class NeighborBackend(Protocol):
    """Contract between the DBSCAN pipeline and a neighbour-search substrate."""

    radius: float
    #: simulated seconds spent building the index (0 for index-free backends).
    build_seconds: float

    @property
    def num_points(self) -> int: ...

    @property
    def num_prims(self) -> int: ...

    def neighbor_counts(
        self, queries: np.ndarray | None = None
    ) -> tuple[np.ndarray, LaunchStats]: ...

    def neighbor_csr(
        self, queries: np.ndarray | None = None, *,
        rows: np.ndarray | None = None, row_counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]: ...

    def release(self) -> None: ...


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The blocks' CSR index fragments as one array."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def _aligned_copy(arr: np.ndarray, alignment: int = 32) -> np.ndarray:
    """A C-contiguous float64 copy whose data pointer is ``alignment``-aligned.

    numpy only guarantees 16-byte alignment from its allocator; the native
    SoA kernels want vector-width (AVX, 32-byte) alignment, so the copy is
    carved at the right offset out of an over-allocated byte buffer.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    buf = np.empty(arr.nbytes + alignment, dtype=np.uint8)
    offset = (-buf.ctypes.data) % alignment
    out = buf[offset : offset + arr.nbytes].view(np.float64)
    out[:] = arr.ravel()
    return out


# ------------------------------------------------------------------------- #
# Host-side (shader-core priced) backends.
# ------------------------------------------------------------------------- #
@dataclass
class _HostNeighborBackend:
    """Shared machinery of the CPU backends: validation, cost accounting.

    Subclasses implement ``_build()`` (index construction, sets
    ``build_seconds`` and optionally a device-memory allocation) and
    ``_scan()`` — the one blocked query sweep behind every count and CSR
    query: dataset, external, rows and seeded rows.
    """

    points: np.ndarray
    radius: float
    device: RTDevice | None = None

    build_seconds: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.radius <= 0 or not np.isfinite(self.radius):
            raise ValueError("radius (eps) must be positive")
        self.points = ensure_points3d(self.points)
        self.device = self.device or RTDevice()
        self._mem_label: str | None = None
        self._build()

    def _build(self) -> None:  # pragma: no cover - overridden
        pass

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def num_prims(self) -> int:
        return self.num_points

    def _stats(self, num_rays: int, candidates: int, node_visits: int,
               confirmed: int) -> LaunchStats:
        """One query launch's stats, priced at shader-core rates."""
        counts = OpCounts(
            sm_node_visits=int(node_visits),
            distance_computations=int(candidates),
            kernel_launches=1,
        )
        return LaunchStats(
            num_rays=int(num_rays),
            confirmed_hits=int(confirmed),
            simulated_seconds=self.device.cost_model.time_s(counts),
            counts=counts,
        )

    def _resolve_queries(
        self, queries: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Query points plus their own point ids (dataset queries drop themselves)."""
        if queries is None:
            return self.points, np.arange(self.num_points)
        return ensure_points3d(queries, name="queries"), None

    def _scan(
        self, qpts: np.ndarray, self_map: np.ndarray | None, collect: bool,
        row_counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, int, int]:
        """Blocked sweep: ``(hit_counts, indices, candidates, node_visits)``.

        Query ``i`` skips point ``self_map[i]`` (``None``: skips nothing).
        ``indices`` (only when ``collect``) is the canonical CSR index
        array: rows in query order, indices ascending.  A CSR sweep given
        the rows' ``row_counts`` raises ``ValueError`` unless every row
        holds exactly that many hits; a backend may size its fill with them.
        """
        raise NotImplementedError  # pragma: no cover - overridden

    # ------------------------------------------------------------------ #
    def neighbor_counts(
        self, queries: np.ndarray | None = None
    ) -> tuple[np.ndarray, LaunchStats]:
        """ε-neighbour count per query (self excluded for dataset queries).

        No neighbour ids are stored — this is a pure counting sweep.
        """
        qpts, self_map = self._resolve_queries(queries)
        counts, _, candidates, node_visits = self._scan(qpts, self_map, False)
        return counts, self._stats(qpts.shape[0], candidates, node_visits, counts.sum())

    def neighbor_csr(
        self, queries: np.ndarray | None = None, *,
        rows: np.ndarray | None = None, row_counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """Confirmed ε-adjacency in canonical CSR form, built block-by-block.

        ``rows`` fills only the rows of those dataset points: CSR row ``i``
        is point ``rows[i]``, self hit excluded.  Given the queries' hit
        counts as ``row_counts``, it raises ``ValueError`` unless every row
        holds that many neighbours.
        """
        if rows is None:
            qpts, self_map = self._resolve_queries(queries)
        else:
            if queries is not None:
                raise ValueError("pass either queries or rows, not both")
            rows = point_rows(rows, self.num_points)
            if rows.size == 0:
                return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp), LaunchStats()
            qpts, self_map = self.points[rows], rows
        counts, indices, candidates, node_visits = self._scan(
            qpts, self_map, True, row_counts
        )
        indptr = np.zeros(qpts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, indices, self._stats(qpts.shape[0], candidates, node_visits, indices.size)

    def release(self) -> None:
        """Free the simulated device-side index."""
        if self._mem_label is not None:
            self.device.memory.free(self._mem_label)
            self._mem_label = None


@register_backend(
    "brute",
    description="Exact all-pairs distance search on the shader cores (O(n^2), index-free).",
    native=True,
)
@dataclass
class BruteNeighborBackend(_HostNeighborBackend):
    """The exact oracle: blocked all-pairs distances, no index at all.

    Memory stays O(``chunk_size`` · n): each block's distances run through
    the BLAS prescreen + exact confirm of
    :func:`~repro.neighbors.brute.pairwise_within_blocks`.
    """

    chunk_size: int = 512

    def _scan(self, qpts, self_map, collect, row_counts=None):
        """The oracle keeps its count pass: ``row_counts`` are only checked."""
        nq = qpts.shape[0]
        counts = np.zeros(nq, dtype=np.int64)
        parts: list[np.ndarray] = []
        for lo, qi, di in pairwise_within_blocks(
            qpts, self.points, self.radius, block_size=self.chunk_size
        ):
            if self_map is not None:
                keep = self_map[qi] != di
                qi, di = qi[keep], di[keep]
            hi = min(nq, lo + self.chunk_size)
            counts[lo:hi] = np.bincount(qi - lo, minlength=hi - lo)
            if collect:
                parts.append(di)
        if row_counts is not None:
            check_row_counts(counts, row_counts)
        indices = _joined(parts) if collect else None
        return counts, indices, nq * self.num_points, 0


@register_backend(
    "grid",
    description="Uniform ε-cell grid (the CUDA-DClust+ / DenseBox index) on the shader cores.",
    native=True,
)
@dataclass
class GridNeighborBackend(_HostNeighborBackend):
    """ε-cell grid: candidates come from the 3^d cells around each query.

    The stencil gather is fully vectorised over query blocks via the grid's
    flat CSR cell table (:meth:`~repro.neighbors.grid.UniformGrid.stencil_ranges`);
    there is no per-cell Python loop.
    """

    block_size: int = 4096

    def _build(self) -> None:
        self.grid = UniformGrid(self.points, self.radius)
        self.build_seconds = self.device.cost_model.build_time_s(self.num_points, unit="sm")
        self._mem_label = f"grid_backend_{id(self)}"
        self.device.memory.allocate(self._mem_label, self.grid.memory_bytes())
        self._soa: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _grid_soa(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate coordinates in cell order as three 32-byte-aligned arrays.

        The native stencil kernel streams these SoA lanes instead of chasing
        ``grid.order`` through the (n, 3) points array, so its inner distance
        loop reads three contiguous, vector-width-aligned streams.  Built
        lazily on the first native scan and cached for the backend's life.
        """
        if self._soa is None:
            gathered = self.points[self.grid.order]
            self._soa = tuple(
                _aligned_copy(np.ascontiguousarray(gathered[:, k]))
                for k in range(3)
            )
        return self._soa

    def _grid_scan(self, nk, qpts, self_map, **buffers):
        """One native stencil pass (count, or fill into ``buffers``).

        Returns the charged candidate total, or ``None`` when the kernel
        declines the arrays and the numpy sweep must run instead.
        """
        grid = self.grid
        return nk.grid_scan(
            qpts, self._grid_soa(), grid.order, grid.cell_table, grid.cell_indptr,
            grid.origin, grid.cell_size, grid.dims,
            self.radius * self.radius, self_map, **buffers,
        )

    def _scan_native(self, qpts, self_map, collect, row_counts):
        """The stencil sweep on the native tier (or ``None`` to use numpy).

        One C pass counts per-row hits (and the charged candidate total), a
        second fills the pre-sized canonical CSR — byte-identical to the
        numpy block sweep below.  Known ``row_counts`` size the CSR up
        front, so the first pass fills it.
        """
        nk = native_dispatch.kernels()
        if nk is None:
            return None
        qpts = np.ascontiguousarray(qpts)
        nq = qpts.shape[0]
        counts = np.zeros(nq, dtype=np.int64)
        seeded = collect and row_counts is not None
        csr = seeded_csr(row_counts, nq) if seeded else {}
        candidates = self._grid_scan(nk, qpts, self_map, row_counts=counts, **csr)
        if candidates is None:
            return None
        if seeded:
            check_row_counts(counts, row_counts)
        elif collect:
            csr = seeded_csr(counts, nq)
            self._grid_scan(nk, qpts, self_map, **csr)
        return counts, csr.get("indices"), candidates, 0

    def _scan(self, qpts, self_map, collect, row_counts=None):
        native = self._scan_native(qpts, self_map, collect, row_counts)
        if native is not None:
            return native
        r2 = self.radius * self.radius
        nq = qpts.shape[0]
        counts = np.zeros(nq, dtype=np.int64)
        parts: list[np.ndarray] = []
        candidates = 0
        for lo in range(0, nq, self.block_size):
            hi = min(nq, lo + self.block_size)
            starts, cnts = self.grid.stencil_ranges(qpts[lo:hi])
            per_q = cnts.sum(axis=1)
            candidates += int(per_q.sum())
            cand = self.grid.order[expand_ranges(starts.ravel(), cnts.ravel())]
            rep_q = np.repeat(np.arange(lo, hi, dtype=np.intp), per_q)
            d = qpts[rep_q] - self.points[cand]
            hit = np.einsum("ij,ij->i", d, d) <= r2
            if self_map is not None:
                hit &= self_map[rep_q] != cand
            hq, hc = rep_q[hit], cand[hit]
            order = np.lexsort((hc, hq))
            hq, hc = hq[order], hc[order]
            counts[lo:hi] = np.bincount(hq - lo, minlength=hi - lo)
            if collect:
                parts.append(hc)
        if row_counts is not None:
            check_row_counts(counts, row_counts)
        return counts, _joined(parts) if collect else None, candidates, 0


@register_backend(
    "kdtree",
    description="Median-split KD-tree fixed-radius search on the shader cores.",
    native=True,
)
@dataclass
class KDTreeNeighborBackend(_HostNeighborBackend):
    """KD-tree search — the CPU fast path for interactive use and refits.

    The tree is a median-split KD-tree materialised in BVH array form
    (:func:`~repro.bvh.kdtree.build_kdtree` over eps-sphere boxes), so its
    queries are sphere launches (:func:`~repro.rtcore.programs.launch_sphere`)
    on either tier: the numpy level-synchronous wavefront or the native DFS
    (``bvh_sphere``).  Charged node-visit and
    candidate counts are the real traversal counters — previously this
    backend wrapped scipy's cKDTree and charged a synthetic depth estimate.
    """

    leafsize: int = 16

    def _build(self) -> None:
        from ..bvh.kdtree import build_kdtree
        from ..geometry.aabb import AABB

        # eps-sphere boxes around each point, ulp-padded outward exactly like
        # SphereGeometry.bounds so AABB pruning stays conservative wrt the
        # rounded d^2 <= r^2 confirm.
        r = self.radius
        pad = 4.0 * np.finfo(np.float64).eps * (np.abs(self.points) + r)
        self.bvh = build_kdtree(
            AABB(self.points - r - pad, self.points + r + pad),
            leaf_size=self.leafsize,
        )
        self.build_seconds = self.device.cost_model.build_time_s(self.num_points, unit="sm")
        self._mem_label = f"kdtree_backend_{id(self)}"
        self.device.memory.allocate(self._mem_label, self.bvh.memory_bytes())

    def _scan(self, qpts, self_map, collect, row_counts=None):
        program = SphereProgram(self.points, self.radius, self_map=self_map)
        if not collect:
            counts, stats = launch_sphere(self.bvh, qpts, program, collect=False)
            return counts, None, stats.candidates, stats.node_visits
        indptr, indices, stats = launch_sphere(
            self.bvh, qpts, program, collect=True, row_counts=row_counts
        )
        return np.diff(indptr), indices, stats.candidates, stats.node_visits
