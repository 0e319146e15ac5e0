"""Native-tier dispatch: the single decision point for numpy vs C kernels.

Call sites (the grid/brute neighbour backends, the approx confirm pass, the
sphere launch shared by rt/kdtree/streaming, the batched union-find) ask
:func:`kernels` for a :class:`NativeKernels` handle and fall back to their
numpy path when it returns ``None``.  The answer is governed by, in priority order:

1. the :func:`override` context manager (the ``native=`` field on
   ``ClustererSpec`` / ``RTDBSCAN`` pushes one around a fit; overrides are
   context-local, so concurrent fits in other threads never see them),
2. the ``REPRO_NATIVE`` environment variable — ``0`` (off), ``1`` (on) or
   anything else / unset (``auto``), read at call time, and
3. availability: the cffi extension is compiled lazily on the first request
   and cached on disk (see :mod:`repro.native.build`).  A failed build is
   recorded once, logged once, and every subsequent request returns ``None``
   — the numpy tier keeps working and nothing ever raises out of here.

``REPRO_NATIVE=0`` (or an active ``override(False)``) short-circuits before
any build attempt, so disabling the tier guarantees no compiler is invoked.

Thread fan-out is governed the same way: :func:`thread_override` (pushed by
the ``native_threads=`` spec field) wins over the ``REPRO_NATIVE_THREADS``
environment variable (``auto`` or unset → one worker per core, a positive
integer → that many workers; anything else is treated as ``auto``), and both
collapse to a single thread when the loaded build lacks OpenMP.  The numpy
and native paths — at *any* thread count — produce byte-identical CSR
adjacencies, labels and charged operation counts, because each query owns a
disjoint CSR row slice and the shared totals are exact integer reductions;
the tier and thread count only change wall-clock time.
"""

from __future__ import annotations

import contextvars
import logging
import os
import threading
from contextlib import ExitStack, contextmanager

import numpy as np

__all__ = [
    "NativeKernels",
    "kernels",
    "available",
    "active_tier",
    "mode",
    "override",
    "thread_override",
    "overrides",
    "requested_threads",
    "resolve_threads",
    "status",
]

_log = logging.getLogger("repro.native")

_lock = threading.Lock()
_state: dict = {"attempted": False, "kernels": None, "reason": None}
#: Pushed overrides, innermost last; an empty tuple means none is active.
#: Context variables keep them local to the thread (or task) that pushed
#: them; ``ParallelMap`` copies the caller's context into its workers.
_tier_stack: contextvars.ContextVar[tuple[bool, ...]] = contextvars.ContextVar(
    "repro_native_tier", default=()
)
_thread_stack: contextvars.ContextVar[tuple[int | None, ...]] = contextvars.ContextVar(
    "repro_native_threads", default=()
)

_OFF_VALUES = frozenset(("0", "false", "off", "no"))
_ON_VALUES = frozenset(("1", "true", "on", "yes"))

#: Kernel slots a native-tier fit can engage, keyed by the layer they serve.
KERNEL_SLOTS = {
    "grid_scan": "neighbors/backend.py (grid stencil gather)",
    "brute_block": "neighbors/brute.py (blocked confirm sweep)",
    "bvh_sphere": "rtcore/programs.py (rt, kdtree and streaming sphere launches)",
    "confirm_pairs": "neighbors/approx.py (lsh exact-distance confirm)",
    "uf_union_edges": "dbscan/disjoint_set.py (batched union-find, serial)",
}

#: Kernels whose query loop fans out across OpenMP threads.
PARALLEL_KERNELS = frozenset(
    ("grid_scan", "brute_block", "bvh_sphere", "confirm_pairs")
)


def _env_mode() -> str:
    raw = os.environ.get("REPRO_NATIVE", "auto").strip().lower()
    if raw in _OFF_VALUES:
        return "off"
    if raw in _ON_VALUES:
        return "on"
    return "auto"


def mode() -> str:
    """Effective mode right now: ``"off"``, ``"on"`` or ``"auto"``.

    An active :func:`override` wins over the ``REPRO_NATIVE`` environment
    variable; both are consulted at call time, never cached.
    """
    pushed = _tier_stack.get()
    if pushed:
        return "on" if pushed[-1] else "off"
    return _env_mode()


def _env_threads() -> int | None:
    """``REPRO_NATIVE_THREADS`` parsed to a worker count, ``None`` = auto.

    Accepts ``auto`` (or unset/empty) and positive integers; zero, negative
    numbers and garbage all collapse to auto rather than raising — the knob
    must never be able to break a fit.
    """
    raw = os.environ.get("REPRO_NATIVE_THREADS", "").strip().lower()
    if not raw or raw == "auto":
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def requested_threads() -> int | None:
    """The requested worker count (``None`` = auto), before availability.

    An active :func:`thread_override` wins over ``REPRO_NATIVE_THREADS``;
    both are consulted at call time, never cached.
    """
    pushed = _thread_stack.get()
    if pushed:
        return pushed[-1]
    return _env_threads()


def _load() -> "NativeKernels | None":
    with _lock:
        if not _state["attempted"]:
            _state["attempted"] = True
            try:
                if np.dtype(np.intp).itemsize != 8:
                    raise RuntimeError("native kernels require 64-bit intp")
                from .build import load_kernels

                lib, ffi = load_kernels()
                _state["kernels"] = NativeKernels(lib, ffi)
            except Exception as exc:  # never propagate: numpy tier still works
                _state["reason"] = f"{type(exc).__name__}: {exc}"
                _log.warning(
                    "native kernel tier unavailable, using numpy fallback: %s",
                    exc,
                )
        return _state["kernels"]


def kernels() -> "NativeKernels | None":
    """The native kernel handle, or ``None`` when the numpy tier should run.

    Returns ``None`` without any build attempt when the effective mode is
    ``"off"``; otherwise triggers (at most once) the lazy compile.
    """
    if mode() == "off":
        return None
    return _load()


def available() -> bool:
    """Whether a native call made right now would use the C kernels."""
    return kernels() is not None


def active_tier() -> str:
    """``"native"`` or ``"numpy"`` — the tier a fit started now would use."""
    return "native" if available() else "numpy"


def resolve_threads() -> int:
    """The worker count a parallel kernel launched right now would use.

    ``1`` whenever the native tier is off/unavailable or the loaded build
    lacks OpenMP; otherwise the requested count, with auto resolving to one
    worker per core (``omp_get_max_threads``).
    """
    nk = kernels()
    if nk is None:
        return 1
    return nk.resolve_threads()


@contextmanager
def _push(stack: contextvars.ContextVar, value):
    token = stack.set(stack.get() + (value,))
    try:
        yield
    finally:
        stack.reset(token)


def override(enabled: bool):
    """Force the tier on/off for the dynamic extent of a ``with`` block.

    This is how the ``native=`` field of ``ClustererSpec`` / ``RTDBSCAN`` is
    applied around a single fit without touching process-wide environment.
    """
    return _push(_tier_stack, bool(enabled))


def thread_override(nthreads: int | None):
    """Pin the worker count (``None`` = auto) for a ``with`` block.

    This is how the ``native_threads=`` field of ``ClustererSpec`` /
    ``RTDBSCAN`` is applied around a single fit without touching the
    process-wide ``REPRO_NATIVE_THREADS`` environment.
    """
    return _push(_thread_stack, None if nthreads is None else max(1, int(nthreads)))


@contextmanager
def overrides(native: bool | None = None, native_threads: int | None = None):
    """Apply a clusterer's ``native=`` / ``native_threads=`` fields.

    Each field that is not ``None`` is pushed as :func:`override` /
    :func:`thread_override`; a ``None`` field leaves the environment's
    setting in force.
    """
    with ExitStack() as stack:
        if native is not None:
            stack.enter_context(override(native))
        if native_threads is not None:
            stack.enter_context(thread_override(native_threads))
        yield


def status() -> dict:
    """Diagnostic snapshot for the ``rt-dbscan native`` CLI subcommand."""
    from .build import cache_dir, kernel_source, module_name, openmp_requested

    try:
        source = kernel_source()
        names = {v: module_name(source, v) for v in ("omp", "serial")}
    except OSError:  # pragma: no cover - missing _kernels.c
        names = {"omp": None, "serial": None}
    current = mode()
    if current != "off":
        _load()  # make 'built'/'reason' reflect an actual attempt
    nk = _state["kernels"]
    active = current != "off" and nk is not None
    openmp = None if nk is None else nk.has_openmp
    tier = "native" if active else "numpy"
    return {
        "mode": current,
        "env": os.environ.get("REPRO_NATIVE", None),
        "active": active,
        "built": nk is not None,
        "attempted": _state["attempted"],
        "fallback_reason": (
            "disabled via REPRO_NATIVE=0 / override" if current == "off" else _state["reason"]
        ),
        "module": names["omp" if openmp in (None, True) else "serial"],
        "cache_dir": str(cache_dir()),
        "variant": None if nk is None else ("omp" if openmp else "serial"),
        "openmp": openmp,
        "openmp_requested": openmp_requested(),
        "max_threads": None if nk is None else nk.openmp_max_threads(),
        "threads_env": os.environ.get("REPRO_NATIVE_THREADS", None),
        "requested_threads": requested_threads(),
        "resolved_threads": nk.resolve_threads() if active else 1,
        "kernels": {
            name: {
                "serves": where,
                "tier": tier,
                "parallel": active
                and bool(openmp)
                and name in PARALLEL_KERNELS,
            }
            for name, where in KERNEL_SLOTS.items()
        },
    }


def _reset_for_testing() -> None:
    """Forget any build attempt and overrides (test hook)."""
    with _lock:
        _state.update({"attempted": False, "kernels": None, "reason": None})
    _tier_stack.set(())
    _thread_stack.set(())


# ------------------------------------------------------------------------- #
# Thin typed wrappers over the compiled library.
# ------------------------------------------------------------------------- #
def _is_c_f64(arr: np.ndarray) -> bool:
    return arr.dtype == np.float64 and arr.flags.c_contiguous


def _is_c_i64(arr: np.ndarray) -> bool:
    return (
        arr.dtype.kind == "i"
        and arr.dtype.itemsize == 8
        and arr.flags.c_contiguous
    )


class NativeKernels:
    """Bound cffi library + the numpy-facing call wrappers.

    Every wrapper validates dtypes/contiguity and returns ``None`` when a
    precondition fails, which the call site treats exactly like an absent
    native tier — the numpy path runs instead.  Wrappers resolve the worker
    count per call (so ``thread_override`` takes effect mid-process) and the
    two passes of a count/fill pair always resolve identically because they
    run under the same override/environment.
    """

    def __init__(self, lib, ffi) -> None:
        self.lib = lib
        self.ffi = ffi
        #: 0 when compiled without OpenMP; else the unrestricted worker count.
        self._omp_max = int(lib.repro_openmp_max_threads())

    # -- thread resolution ----------------------------------------------- #
    @property
    def has_openmp(self) -> bool:
        return self._omp_max > 0

    def openmp_max_threads(self) -> int:
        """``omp_get_max_threads()`` of the loaded build, 0 for serial."""
        return self._omp_max

    def resolve_threads(self) -> int:
        """Worker count for the next parallel kernel launch (>= 1)."""
        if not self.has_openmp:
            return 1
        requested = requested_threads()
        if requested is None:
            return self._omp_max
        return max(1, requested)

    # -- buffer helpers ------------------------------------------------- #
    def _f64(self, arr: np.ndarray):
        return self.ffi.from_buffer("double[]", arr)

    def _i64(self, arr: np.ndarray):
        return self.ffi.from_buffer("int64_t[]", arr)

    def _i64w(self, arr: np.ndarray):
        return self.ffi.from_buffer("int64_t[]", arr, require_writable=True)

    def _u8(self, arr: np.ndarray):
        return self.ffi.from_buffer("uint8_t[]", arr)

    # -- grid ------------------------------------------------------------ #
    def grid_scan(
        self,
        qpts: np.ndarray,
        soa: tuple[np.ndarray, np.ndarray, np.ndarray],
        order: np.ndarray,
        cell_table: np.ndarray,
        cell_indptr: np.ndarray,
        origin: np.ndarray,
        cell_size: float,
        dims: np.ndarray,
        r2: float,
        self_query: bool,
        *,
        indptr: np.ndarray | None = None,
        row_counts: np.ndarray | None = None,
        indices: np.ndarray | None = None,
    ) -> int | None:
        """One stencil-gather pass; returns the charged candidate total.

        ``soa`` is the cell-ordered candidate coordinates as three aligned
        1-D arrays (see ``GridNeighborBackend._grid_soa``).
        """
        cxs, cys, czs = soa
        arrays_f = (qpts, cxs, cys, czs, origin)
        arrays_i = (order, cell_table, cell_indptr, dims)
        if not all(_is_c_f64(a) for a in arrays_f):
            return None
        if not all(_is_c_i64(a) for a in arrays_i):
            return None
        if qpts.ndim != 2 or qpts.shape[1] != 3:
            return None
        if not (cxs.shape == cys.shape == czs.shape == order.shape):
            return None
        cand_out = np.zeros(1, dtype=np.int64)
        self.lib.repro_grid_scan(
            self._f64(qpts),
            qpts.shape[0],
            self._f64(cxs),
            self._f64(cys),
            self._f64(czs),
            self._i64(order),
            self._i64(cell_table),
            self._i64(cell_indptr),
            cell_table.shape[0],
            self._f64(origin),
            float(cell_size),
            self._i64(dims),
            float(r2),
            1 if self_query else 0,
            self.resolve_threads(),
            self.ffi.NULL if indptr is None else self._i64(indptr),
            self.ffi.NULL if row_counts is None else self._i64w(row_counts),
            self.ffi.NULL if indices is None else self._i64w(indices),
            self._i64w(cand_out),
        )
        return int(cand_out[0])

    # -- brute ----------------------------------------------------------- #
    def brute_block(
        self,
        queries_block: np.ndarray,
        data_t: np.ndarray,
        r2: float,
        *,
        indptr: np.ndarray | None = None,
        row_counts: np.ndarray | None = None,
        indices: np.ndarray | None = None,
    ) -> bool:
        """Exact componentwise sweep of one query block against all data."""
        if not (_is_c_f64(queries_block) and _is_c_f64(data_t)):
            return False
        d = queries_block.shape[1]
        if d not in (2, 3) or data_t.shape[0] != d:
            return False
        self.lib.repro_brute_block(
            self._f64(queries_block),
            queries_block.shape[0],
            int(d),
            self._f64(data_t),
            data_t.shape[1],
            float(r2),
            self.resolve_threads(),
            self.ffi.NULL if indptr is None else self._i64(indptr),
            self.ffi.NULL if row_counts is None else self._i64w(row_counts),
            self.ffi.NULL if indices is None else self._i64w(indices),
        )
        return True

    # -- bvh sphere query ------------------------------------------------ #
    def bvh_sphere(
        self,
        qpts: np.ndarray,
        confirm_pts: np.ndarray,
        bvh,
        centers: np.ndarray,
        r2: float,
        *,
        exclude_self: bool = False,
        self_map: np.ndarray | None = None,
        active: np.ndarray | None = None,
        indptr: np.ndarray | None = None,
        row_counts: np.ndarray | None = None,
        indices: np.ndarray | None = None,
        stats: np.ndarray | None = None,
    ) -> bool:
        """One DFS sphere-query pass over ``bvh`` (count or fill mode).

        DFS scratch is allocated here — one slab per resolved worker, each
        sized for the worst-case push depth of a single query.
        """
        arrays_f = (qpts, confirm_pts, bvh.node_lower, bvh.node_upper, centers)
        arrays_i = (bvh.children, bvh.prim_start, bvh.prim_count, bvh.prim_indices)
        if not all(_is_c_f64(a) for a in arrays_f):
            return False
        if not all(_is_c_i64(a) for a in arrays_i):
            return False
        leaf_mask = bvh.leaf_mask
        if leaf_mask.dtype != np.bool_ or not leaf_mask.flags.c_contiguous:
            return False
        if qpts.shape[1] != 3 or confirm_pts.shape[0] < qpts.shape[0]:
            return False
        if self_map is not None and not (
            _is_c_i64(self_map) and self_map.shape[0] >= qpts.shape[0]
        ):
            return False
        if active is not None and not (
            active.dtype == np.bool_
            and active.flags.c_contiguous
            and active.shape[0] >= centers.shape[0]
        ):
            return False
        num_nodes = bvh.node_lower.shape[0]
        nthreads = self.resolve_threads()
        stack = np.empty(nthreads * 2 * (num_nodes + 2), dtype=np.int64)
        self.lib.repro_bvh_sphere(
            self._f64(qpts),
            qpts.shape[0],
            self._f64(confirm_pts),
            self._f64(bvh.node_lower),
            self._f64(bvh.node_upper),
            self._i64(bvh.children),
            self._u8(leaf_mask.view(np.uint8)),
            self._i64(bvh.prim_start),
            self._i64(bvh.prim_count),
            self._i64(bvh.prim_indices),
            num_nodes,
            self._f64(centers),
            float(r2),
            1 if exclude_self else 0,
            self.ffi.NULL if self_map is None else self._i64(self_map),
            self.ffi.NULL if active is None else self._u8(active.view(np.uint8)),
            nthreads,
            self._i64w(stack),
            self.ffi.NULL if indptr is None else self._i64(indptr),
            self.ffi.NULL if row_counts is None else self._i64w(row_counts),
            self.ffi.NULL if indices is None else self._i64w(indices),
            self.ffi.NULL if stats is None else self._i64w(stats),
        )
        return True

    # -- approx confirm --------------------------------------------------- #
    def confirm_pairs(
        self,
        qblock: np.ndarray,
        qbase: int,
        points: np.ndarray,
        cands: np.ndarray,
        pair_indptr: np.ndarray,
        r2: float,
        self_query: bool,
        *,
        indptr: np.ndarray | None = None,
        row_counts: np.ndarray | None = None,
        indices: np.ndarray | None = None,
    ) -> bool:
        """Exact-distance confirm of deduped (query, candidate) pair rows."""
        if not (_is_c_f64(qblock) and _is_c_f64(points)):
            return False
        if not (_is_c_i64(cands) and _is_c_i64(pair_indptr)):
            return False
        if qblock.ndim != 2 or qblock.shape[1] not in (2, 3):
            return False
        if points.ndim != 2 or points.shape[1] != qblock.shape[1]:
            return False
        if pair_indptr.shape[0] != qblock.shape[0] + 1:
            return False
        self.lib.repro_confirm_pairs(
            self._f64(qblock),
            qblock.shape[0],
            qblock.shape[1],
            int(qbase),
            self._f64(points),
            self._i64(cands),
            self._i64(pair_indptr),
            float(r2),
            1 if self_query else 0,
            self.resolve_threads(),
            self.ffi.NULL if indptr is None else self._i64(indptr),
            self.ffi.NULL if row_counts is None else self._i64w(row_counts),
            self.ffi.NULL if indices is None else self._i64w(indices),
        )
        return True

    # -- union-find ------------------------------------------------------ #
    def uf_union_edges(
        self, parent: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> int | None:
        """Batched hook-and-jump rounds; returns hooks or ``None`` (fallback)."""
        if not (_is_c_i64(parent) and parent.flags.writeable):
            return None
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        n = parent.shape[0]
        if a.size == 0:
            return 0
        # The C kernel chases parent pointers unchecked; validate the edge
        # endpoints here (the numpy path would raise IndexError instead).
        if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n:
            return None
        hooks = self.lib.repro_uf_union_edges(
            self._i64w(parent), n, self._i64(a), self._i64(b), a.shape[0]
        )
        return None if hooks < 0 else int(hooks)
