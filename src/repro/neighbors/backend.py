"""Pluggable fixed-radius neighbour backends.

:class:`NeighborBackend` is the substrate contract RT-DBSCAN's Algorithm 3
actually depends on: build an index over the dataset once, then answer

* ``neighbor_counts()`` — ε-neighbour count per point (stage 1), and
* ``neighbor_csr()``    — the confirmed ε-adjacency in canonical CSR form
  (see :mod:`repro.adjacency`),

with the dataset's own points as the default queries and self pairs excluded
(the paper's ``q != s`` filter).  Stage 2 calls
``neighbor_csr(rows=core_ids, row_counts=counts[core_ids])``: only the core
points' rows, which is all cluster formation reads.  Those rows equal the
matching rows of ``neighbor_csr()`` byte for byte; the sphere launches (rt,
kdtree) and the grid size them from the stage-1 counts and run one fill
pass, and the fill charges the device nothing, because the caller charges
the paper's stage-2 relaunch itself.  Every backend produces the CSR
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
they differ only in the operations they charge to the device cost model
(CPU backends charge shader-core work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..adjacency import drop_self_hits, expand_ranges, point_rows, seeded_csr
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
    ``_scan()`` — the blocked query sweep that yields per-row hit counts,
    optionally the CSR index fragments, and the charged candidate /
    node-visit totals.  Count and CSR queries both derive from it.
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

    def _charge(self, *, num_rays: int, candidates: int, node_visits: int = 0,
                confirmed: int = 0) -> LaunchStats:
        """Charge one query launch to the device at shader-core rates."""
        counts = OpCounts(
            sm_node_visits=int(node_visits),
            distance_computations=int(candidates),
            kernel_launches=1,
        )
        seconds = self.device.charge(counts)
        return LaunchStats(
            num_rays=int(num_rays),
            confirmed_hits=int(confirmed),
            simulated_seconds=seconds,
            counts=counts,
        )

    def _resolve_queries(self, queries: np.ndarray | None) -> tuple[np.ndarray, bool]:
        """Query points plus the self-filter flag (dataset queries drop q == p)."""
        if queries is None:
            return self.points, True
        return ensure_points3d(queries, name="queries"), False

    def _scan(
        self, qpts: np.ndarray, self_query: bool, collect: bool
    ) -> tuple[np.ndarray, list[np.ndarray] | None, int, int]:
        """Blocked sweep: ``(row_counts, csr_parts, candidates, node_visits)``.

        ``csr_parts`` (only when ``collect``) are canonical per-block CSR
        index fragments: rows in query order, indices ascending.
        """
        raise NotImplementedError  # pragma: no cover - overridden

    # ------------------------------------------------------------------ #
    def neighbor_counts(
        self, queries: np.ndarray | None = None
    ) -> tuple[np.ndarray, LaunchStats]:
        """ε-neighbour count per query (self excluded for dataset queries).

        No neighbour ids are stored — this is a pure counting sweep.
        """
        qpts, self_query = self._resolve_queries(queries)
        row_counts, _, candidates, node_visits = self._scan(qpts, self_query, collect=False)
        stats = self._charge(
            num_rays=qpts.shape[0], candidates=candidates,
            node_visits=node_visits, confirmed=int(row_counts.sum()),
        )
        return row_counts, stats

    def neighbor_csr(
        self, queries: np.ndarray | None = None, *,
        rows: np.ndarray | None = None, row_counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """Confirmed ε-adjacency in canonical CSR form, built block-by-block.

        ``rows`` fills only the rows of those dataset points, uncharged: CSR
        row ``i`` is point ``rows[i]``, self hit excluded (see
        :meth:`_fill_rows`).
        """
        if rows is not None:
            if queries is not None:
                raise ValueError("pass either queries or rows, not both")
            rows = point_rows(rows, self.num_points)
            if rows.size == 0:
                return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp), LaunchStats()
            indptr, indices = self._fill_rows(rows, row_counts)
            return indptr, indices, LaunchStats(
                num_rays=int(rows.size), confirmed_hits=int(indices.size)
            )
        qpts, self_query = self._resolve_queries(queries)
        row_counts, parts, candidates, node_visits = self._scan(qpts, self_query, collect=True)
        indptr = np.zeros(qpts.shape[0] + 1, dtype=np.int64)
        np.cumsum(row_counts, out=indptr[1:])
        indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        stats = self._charge(
            num_rays=qpts.shape[0], candidates=candidates,
            node_visits=node_visits, confirmed=int(indices.size),
        )
        return indptr, indices, stats

    def _fill_rows(
        self, rows: np.ndarray, row_counts: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The CSR rows of dataset points ``rows``, their own ids dropped.

        ``points[rows]`` are swept as external queries, and
        :func:`~repro.adjacency.drop_self_hits` drops each one's own id
        (the paper's ``q != s`` filter).  Given ``row_counts``, every row
        must hold exactly that many neighbours, or ``ValueError`` is
        raised.  The grid seeds its native fill with them; ``brute`` keeps
        its count pass, because it is the oracle and its blocked sweep
        (:func:`~repro.neighbors.brute.pairwise_within_blocks`) serves other
        callers too.
        """
        counts, parts, _, _ = self._scan(self.points[rows], False, collect=True)
        indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        return drop_self_hits(rows, counts, indices, row_counts)

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

    def _scan(self, qpts, self_query, collect):
        nq = qpts.shape[0]
        row_counts = np.zeros(nq, dtype=np.int64)
        parts: list[np.ndarray] | None = [] if collect else None
        for lo, qi, di in pairwise_within_blocks(
            qpts, self.points, self.radius, block_size=self.chunk_size
        ):
            if self_query:
                keep = qi != di
                qi, di = qi[keep], di[keep]
            hi = min(nq, lo + self.chunk_size)
            row_counts[lo:hi] = np.bincount(qi - lo, minlength=hi - lo)
            if parts is not None:
                parts.append(di)
        return row_counts, parts, nq * self.num_points, 0


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

    def _grid_scan(self, nk, qpts, self_query, **buffers):
        """One native stencil pass (count, or fill into ``buffers``).

        Returns the charged candidate total, or ``None`` when the kernel
        declines the arrays and the numpy sweep must run instead.
        """
        grid = self.grid
        return nk.grid_scan(
            qpts, self._grid_soa(), grid.order, grid.cell_table, grid.cell_indptr,
            grid.origin, grid.cell_size, grid.dims,
            self.radius * self.radius, self_query, **buffers,
        )

    def _scan_native(self, qpts, self_query, collect):
        """The stencil sweep on the native tier (or ``None`` to use numpy).

        One C pass counts per-row hits (and the charged candidate total), a
        second fills the pre-sized canonical CSR fragment — byte-identical to
        the numpy block sweep below.
        """
        nk = native_dispatch.kernels()
        if nk is None:
            return None
        qpts = np.ascontiguousarray(qpts)
        row_counts = np.zeros(qpts.shape[0], dtype=np.int64)
        candidates = self._grid_scan(nk, qpts, self_query, row_counts=row_counts)
        if candidates is None:
            return None
        if not collect:
            return row_counts, None, candidates, 0
        csr = seeded_csr(row_counts, qpts.shape[0])
        self._grid_scan(nk, qpts, self_query, **csr)
        return row_counts, [csr["indices"]], candidates, 0

    def _fill_rows(self, rows, row_counts):
        """Given the rows' counts, one native fill pass sized by ``row_counts + 1``.

        Each query finds itself once, so its sweep row is one longer than
        its neighbour count; the kernel caps every row's writes at that
        size and reports its real hits, which
        :func:`~repro.adjacency.drop_self_hits` checks.
        """
        nk = native_dispatch.kernels()
        if row_counts is not None and nk is not None:
            qpts = self.points[rows]
            csr = seeded_csr(np.asarray(row_counts) + 1, rows.size)
            hits = np.zeros(rows.size, dtype=np.int64)
            if self._grid_scan(nk, qpts, False, row_counts=hits, **csr) is not None:
                return drop_self_hits(rows, hits, csr["indices"], row_counts)
        return super()._fill_rows(rows, row_counts)

    def _scan(self, qpts, self_query, collect):
        native = self._scan_native(qpts, self_query, collect)
        if native is not None:
            return native
        r2 = self.radius * self.radius
        nq = qpts.shape[0]
        row_counts = np.zeros(nq, dtype=np.int64)
        parts: list[np.ndarray] | None = [] if collect else None
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
            if self_query:
                hit &= rep_q != cand
            hq, hc = rep_q[hit], cand[hit]
            order = np.lexsort((hc, hq))
            hq, hc = hq[order], hc[order]
            row_counts[lo:hi] = np.bincount(hq - lo, minlength=hi - lo)
            if parts is not None:
                parts.append(hc)
        return row_counts, parts, candidates, 0


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

    def _scan(self, qpts, self_query, collect):
        program = SphereProgram(self.points, self.radius, exclude_self=self_query)
        if not collect:
            counts, stats = launch_sphere(self.bvh, qpts, program, collect=False)
            return counts, None, stats.candidates, stats.node_visits
        indptr, indices, stats = launch_sphere(self.bvh, qpts, program, collect=True)
        return np.diff(indptr), [indices], stats.candidates, stats.node_visits

    def _fill_rows(self, rows, row_counts):
        """A sphere launch from ``points[rows]`` with ``self_map=rows``.

        Given the rows' counts it runs the native fill pass alone.
        """
        program = SphereProgram(self.points, self.radius, self_map=rows)
        indptr, indices, _ = launch_sphere(
            self.bvh, self.points[rows], program, collect=True, row_counts=row_counts
        )
        return indptr, indices
