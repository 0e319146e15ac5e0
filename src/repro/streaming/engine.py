"""Streaming RT-DBSCAN engine.

:class:`StreamingRTDBSCAN` clusters an unbounded point stream with the
paper's two-stage RT-DBSCAN while touching, per update, only the state an
update can actually change:

* **Stage 1 (core identification) is incremental.**  The engine caches the
  per-point ε-neighbour count (the same quantity batch RT-DBSCAN exposes via
  ``keep_neighbor_counts``).  A chunk of ``k`` new points launches ``k``
  ε-rays; each new point's count is read off its own ray, and every hit onto
  an existing point bumps that point's cached count.  No existing point is
  re-queried unless it crosses the ``min_pts`` threshold ("promotion").

* **Stage 2 (cluster formation) is monotone under insertion.**  Core–core
  edges discovered by the new and promoted rays are merged into a persistent
  union–find forest; border points carry an *anchor* — the earliest-arrived
  core point within ε — which reproduces the batch implementation's
  deterministic border assignment.  Because insertion can only add core
  points and grow clusters, the forest never needs repair on append-only
  streams, and the final window labelling is identical to batch
  :func:`repro.dbscan.rt_dbscan` on the same points.

* **Eviction is the only structural hazard.**  Removing a *noise or border*
  point just decrements its neighbours' counts.  Removing a *core* point —
  or demoting one by decrement — can split a cluster, so those updates
  re-run stage 2 with ε-rays from the surviving core points only (stage 1
  stays incremental; this is the paper's "recompute rather than store"
  trade applied to the streaming setting).

* **Cached counts size the queries.**  The evicted points' rays, the
  promoted points' rays and the re-clustering rays all start from slots
  whose cached count is exact at launch time, so each passes it to the
  scene as ``row_counts`` and fills its CSR in one traversal (Algorithm 3
  sizes its stage-2 output from the stage-1 counts the same way).  Only
  the new points' rays, whose counts are what they measure, run a count
  pass first.

Scene maintenance (refit vs rebuild) is delegated to
:class:`~repro.streaming.scene.StreamingScene` and its
:class:`~repro.streaming.policy.RefitPolicy`; every launch, refit, build,
union and atomic is charged to the device cost model, so per-update reports
carry the same Section V-D style breakdown as the batch path.  Scene queries
run through the zero-materialisation CSR launch
(:meth:`~repro.streaming.scene.StreamingScene.query_csr`): candidates are
confirmed chunk-by-chunk inside the traversal and only the window's live
edge set — the expansion the incremental count/anchor updates actually
consume — is ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api.protocol import ClustererMixin
from ..api.registry import get_backend, register_algorithm
from ..dbscan.disjoint_set import ParallelDisjointSet
from ..native import dispatch as native_dispatch
from ..dbscan.params import NOISE, DBSCANParams, DBSCANResult, canonicalize_labels
from ..geometry.transforms import ensure_points3d
from ..perf.cost_model import OpCounts
from ..perf.timing import ExecutionReport, PhaseTimer
from ..rtcore.device import RTDevice
from .policy import RefitPolicy
from .scene import HostStreamingScene, StreamingScene

__all__ = ["StreamingRTDBSCAN", "StreamUpdate", "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION"]

#: identity + schema version of the engine section of :meth:`StreamingRTDBSCAN.snapshot`.
SNAPSHOT_FORMAT = "streaming-rt-dbscan-snapshot"
SNAPSHOT_VERSION = 1


@dataclass
class StreamUpdate:
    """Outcome of one :meth:`StreamingRTDBSCAN.update` call.

    Attributes
    ----------
    labels:
        Cluster labels of the *current window*, in arrival order (noise is
        ``-1``; numbering follows the same smallest-member convention as the
        batch algorithms).
    core_mask:
        Core flags of the current window, aligned with ``labels``.
    window_arrivals:
        Global arrival sequence number of each window point, aligned with
        ``labels`` — callers use it to join labels back to their own stream
        bookkeeping.
    accel_action:
        How the acceleration structure was maintained this update:
        ``"none"``, ``"refit"`` or ``"rebuild"``.
    reclustered:
        True when eviction forced the full stage-2 re-clustering pass.
    report:
        Per-phase simulated/wall time and operation counts for this update.
    """

    chunk_index: int
    num_new: int
    num_evicted: int
    window_size: int
    num_clusters: int
    num_noise: int
    accel_action: str
    reclustered: bool
    labels: np.ndarray
    core_mask: np.ndarray
    window_arrivals: np.ndarray
    report: ExecutionReport | None = None
    extra: dict = field(default_factory=dict)

    @property
    def simulated_seconds(self) -> float:
        return self.report.total_simulated_seconds if self.report else 0.0

    @property
    def wall_seconds(self) -> float:
        return self.report.total_wall_seconds if self.report else 0.0

    def as_dict(self) -> dict:
        return {
            "chunk_index": self.chunk_index,
            "num_new": self.num_new,
            "num_evicted": self.num_evicted,
            "window_size": self.window_size,
            "num_clusters": self.num_clusters,
            "num_noise": self.num_noise,
            "accel_action": self.accel_action,
            "reclustered": self.reclustered,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
        }


@register_algorithm(
    "streaming-rt-dbscan",
    description="Incremental RT-DBSCAN over a point stream (sliding window, refit-aware).",
    supports_backend=True,
    supports_native=True,
)
class StreamingRTDBSCAN(ClustererMixin):
    """Incremental RT-DBSCAN over a point stream.

    Parameters
    ----------
    eps, min_pts:
        The DBSCAN parameters (shared by every window).
    window:
        Maximum number of live points.  ``None`` (default) grows without
        bound; an integer turns the engine into a sliding window that evicts
        the oldest points as new chunks arrive.
    device:
        Simulated RT device; a fresh RTX 2060-like device by default.
    policy:
        Refit-vs-rebuild policy for scene maintenance (default: cost-model
        driven ``"auto"``).
    backend:
        Window-query substrate: ``"rt"`` (default) maintains the ε-sphere
        BVH scene on the simulated RT device; any registered host backend
        (``"grid"``, ``"kdtree"``, ``"brute"``) answers the same queries
        through :class:`~repro.streaming.scene.HostStreamingScene` with
        bit-identical labels.
    builder, leaf_size, chunk_size, initial_capacity:
        Scene parameters forwarded to :class:`StreamingScene`; a caller that
        knows its feed sizes ``initial_capacity`` with
        :func:`~repro.streaming.scene.feed_capacity`.
    native:
        Kernel-tier override applied to every :meth:`update`: ``True``
        forces the compiled C kernels, ``False`` forces pure numpy,
        ``None`` (default) defers to the ``REPRO_NATIVE`` environment knob.
        Labels and charged operation counts are identical either way.
    native_threads:
        OpenMP worker-count override for the native kernels, applied to
        every :meth:`update` like ``native``; ``None`` (default) defers to
        ``REPRO_NATIVE_THREADS``.  Byte-identical results at any count.

    Examples
    --------
    >>> engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=2000)
    >>> for chunk in stream:                      # doctest: +SKIP
    ...     update = engine.update(chunk)
    ...     serve(update.labels, update.window_arrivals)
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        *,
        window: int | None = None,
        device: RTDevice | None = None,
        policy: RefitPolicy | None = None,
        backend: str | None = None,
        builder: str = "lbvh",
        leaf_size: int = 4,
        chunk_size: int = 16384,
        initial_capacity: int = 256,
        native: bool | None = None,
        native_threads: int | None = None,
    ) -> None:
        self.params = DBSCANParams(eps=eps, min_pts=min_pts)
        self.native = native
        self.native_threads = native_threads
        if window is not None and window < 1:
            raise ValueError("window must be a positive integer or None")
        self.window = window
        self.device = device or RTDevice()
        self.policy = policy or RefitPolicy()
        self.backend = "rt" if backend is None else get_backend(backend).name
        self.builder = builder
        if self.backend == "rt":
            self.scene = StreamingScene(
                eps,
                self.device,
                builder=builder,
                leaf_size=leaf_size,
                chunk_size=chunk_size,
                initial_capacity=initial_capacity,
            )
        else:
            # Host substrates answer window queries through the registered
            # neighbour backends.
            self.scene = HostStreamingScene(
                eps,
                self.device,
                backend=self.backend,
                leaf_size=leaf_size,
                chunk_size=chunk_size,
                initial_capacity=initial_capacity,
            )

        cap = self.scene.capacity
        self._counts = np.zeros(cap, dtype=np.int64)
        self._core = np.zeros(cap, dtype=bool)
        self._arrival = np.full(cap, -1, dtype=np.int64)
        self._anchor = np.full(cap, -1, dtype=np.intp)
        self._forest = ParallelDisjointSet(cap)
        self._next_arrival = 0

        #: running totals across updates.
        self.num_updates = 0
        self.points_ingested = 0
        self.points_evicted = 0
        self.total_counts = OpCounts()
        self.total_simulated_seconds = 0.0
        self.total_wall_seconds = 0.0
        self._last_report: ExecutionReport | None = None

        #: lifecycle state: ``release()`` is idempotent, and every *effective*
        #: release (one that actually freed the scene) is counted so session
        #: owners can assert the exactly-once teardown contract.
        self.num_releases = 0
        self._released = False
        #: True when this engine was rebuilt from a checkpoint (see
        #: :meth:`restore`); surfaced in results so serving stats can tell a
        #: warm-restored session from a fresh one.
        self.restored = False

    # ------------------------------------------------------------------ #
    @property
    def eps(self) -> float:
        return self.params.eps

    @property
    def min_pts(self) -> int:
        return self.params.min_pts

    @property
    def window_size(self) -> int:
        return int((self._arrival >= 0).sum())

    def _window_slots(self) -> np.ndarray:
        """Live slots in arrival order (the canonical window ordering)."""
        live = np.flatnonzero(self._arrival >= 0)
        return live[np.argsort(self._arrival[live], kind="stable")]

    @property
    def window_points(self) -> np.ndarray:
        """Current window points (lifted to 3D), in arrival order."""
        return self.scene.centers[self._window_slots()].copy()

    @property
    def window_arrivals(self) -> np.ndarray:
        return self._arrival[self._window_slots()].copy()

    # ------------------------------------------------------------------ #
    def _sync_capacity(self) -> None:
        cap = self.scene.capacity
        old = self._counts.shape[0]
        if cap <= old:
            return
        pad = cap - old
        self._counts = np.concatenate([self._counts, np.zeros(pad, dtype=np.int64)])
        self._core = np.concatenate([self._core, np.zeros(pad, dtype=bool)])
        self._arrival = np.concatenate([self._arrival, np.full(pad, -1, dtype=np.int64)])
        self._anchor = np.concatenate([self._anchor, np.full(pad, -1, dtype=np.intp)])
        self._forest.grow(cap)

    def _validate_chunk(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            return np.empty((0, 3), dtype=np.float64)
        return ensure_points3d(pts, name="chunk")

    # ------------------------------------------------------------------ #
    def update(self, points: np.ndarray) -> StreamUpdate:
        """Ingest one chunk, slide the window, and re-cluster incrementally."""
        with native_dispatch.overrides(self.native, self.native_threads):
            return self._update(points)

    def _update(self, points: np.ndarray) -> StreamUpdate:
        pts3 = self._validate_chunk(points)
        if self.window is not None and pts3.shape[0] > self.window:
            # A chunk larger than the window: only its newest points survive.
            pts3 = pts3[-self.window :]
        k = pts3.shape[0]
        timer = PhaseTimer("streaming-rt-dbscan", self.device.cost_model)
        timer.metadata.update(
            {
                "eps": self.eps,
                "min_pts": self.min_pts,
                "window": self.window,
                "chunk_points": k,
                "device": self.device.name,
            }
        )

        # ------------------------------------------------------------ #
        # Eviction: slide the window before the chunk lands.
        # ------------------------------------------------------------ #
        evict_slots = np.empty(0, dtype=np.intp)
        if self.window is not None:
            live = self._window_slots()
            overflow = live.size + k - self.window
            if overflow > 0:
                evict_slots = live[:overflow]

        need_full = False
        revive_seconds = 0.0
        with timer.phase("evict") as counts:
            if evict_slots.size:
                if self._released:
                    # The eviction query needs the scene ``_counts`` describe,
                    # which release() freed: rebuild it first.
                    _, revive_seconds, revive_counts = self.scene.commit(self.policy)
                    counts.merge(revive_counts)
                need_full = self._evict(evict_slots, counts)
        if revive_seconds:
            # A rebuild is priced by the device's build estimate, not its counts.
            timer.set_last_phase_seconds(self.device.cost_model.time_s(counts) + revive_seconds)

        # ------------------------------------------------------------ #
        # Scene maintenance: append spheres, then refit or rebuild.
        # ------------------------------------------------------------ #
        accel_action = "none"
        accel_seconds = 0.0
        new_slots = np.empty(0, dtype=np.intp)
        with timer.phase("scene_update") as counts:
            if k:
                new_slots = self.scene.add(pts3)
                self._sync_capacity()
                self._arrival[new_slots] = np.arange(
                    self._next_arrival, self._next_arrival + k, dtype=np.int64
                )
                self._next_arrival += k
            if k or evict_slots.size:
                accel_action, accel_seconds, accel_counts = self.scene.commit(self.policy)
                counts.merge(accel_counts)
                # Ingesting after release() transparently rebuilds the scene
                # (commit sees the invalidated structure), so the engine is
                # live again and a later teardown must release it again.
                self._released = False
        # The accel time comes from the device's build/refit estimate, not
        # from the recorded counts (mirrors the batch bvh_build phase).
        timer.set_last_phase_seconds(accel_seconds)

        # ------------------------------------------------------------ #
        # Stage 1 (incremental): counts from the new points' rays only.
        # ------------------------------------------------------------ #
        promoted = np.empty(0, dtype=np.intp)
        new_lens = np.empty(0, dtype=np.int64)
        new_hits = np.empty(0, dtype=np.intp)
        with timer.phase("core_update") as counts:
            if k:
                indptr, new_hits, stats = self.scene.query_csr(new_slots)
                counts.merge(stats.counts)
                new_lens = np.diff(indptr)
                promoted = self._apply_count_deltas(new_slots, new_lens, new_hits)

        # ------------------------------------------------------------ #
        # Stage 2: monotone merge, or full re-cluster after a core loss.
        # ------------------------------------------------------------ #
        with timer.phase("cluster_update") as counts:
            if need_full:
                self._forest = ParallelDisjointSet(self.scene.capacity)
                self._anchor[:] = -1
                rows = np.flatnonzero(self._core & (self._arrival >= 0))
                indptr, hits, stats = self.scene.query_csr(rows, self._counts[rows])
                counts.merge(stats.counts)
                lens = np.diff(indptr)
            elif promoted.size:
                indptr, hits, stats = self.scene.query_csr(promoted, self._counts[promoted])
                counts.merge(stats.counts)
                rows = np.concatenate([new_slots, promoted])
                lens = np.concatenate([new_lens, np.diff(indptr)])
                hits = np.concatenate([new_hits, hits])
            else:
                rows, lens, hits = new_slots, new_lens, new_hits
            unions, atomics = self._apply_pairs(np.repeat(rows, lens), hits)
            counts.union_ops += unions
            counts.atomic_ops += atomics
            self.device.charge(OpCounts(union_ops=unions, atomic_ops=atomics))

        # ------------------------------------------------------------ #
        # Window labelling.
        # ------------------------------------------------------------ #
        win = self._window_slots()
        labels, core_mask = self._window_labels(win)

        report = timer.report()
        self._last_report = report
        self.num_updates += 1
        self.points_ingested += k
        self.points_evicted += int(evict_slots.size)
        for phase in report.phases:
            self.total_counts.merge(phase.counts)
        self.total_simulated_seconds += report.total_simulated_seconds
        self.total_wall_seconds += report.total_wall_seconds

        unique = np.unique(labels)
        return StreamUpdate(
            chunk_index=self.num_updates - 1,
            num_new=k,
            num_evicted=int(evict_slots.size),
            window_size=int(win.size),
            num_clusters=int((unique >= 0).sum()),
            num_noise=int((labels == NOISE).sum()),
            accel_action=accel_action,
            reclustered=need_full,
            labels=labels,
            core_mask=core_mask,
            window_arrivals=self._arrival[win].copy(),
            report=report,
        )

    # ------------------------------------------------------------------ #
    def _evict(self, evict_slots: np.ndarray, counts: OpCounts) -> bool:
        """Remove the given slots; returns True when stage 2 must re-run.

        Only the loss of a core point (directly, or by demotion of a
        neighbour whose count drops below ``min_pts``) can change the
        cluster structure of the survivors; border and noise evictions just
        decrement cached counts.
        """
        # Runs before this update's slot edits, on the scene ``_counts`` describe.
        _, p, stats = self.scene.query_csr(evict_slots, self._counts[evict_slots])
        counts.merge(stats.counts)

        evicted_core = bool(self._core[evict_slots].any())

        ev_mask = np.zeros(self.scene.capacity, dtype=bool)
        ev_mask[evict_slots] = True
        survivors = p[~ev_mask[p]]
        np.subtract.at(self._counts, survivors, 1)
        touched = np.unique(survivors)
        demoted = touched[self._core[touched] & (self._counts[touched] < self.min_pts)]
        self._core[demoted] = False

        self.scene.deallocate(evict_slots)
        self._counts[evict_slots] = 0
        self._core[evict_slots] = False
        self._arrival[evict_slots] = -1
        self._anchor[evict_slots] = -1
        # Evicted slots were either never unioned (non-core) or the forest is
        # about to be rebuilt (core loss); reset keeps slot reuse clean.
        self._forest.parent[evict_slots] = evict_slots
        return evicted_core or bool(demoted.size)

    def _apply_count_deltas(
        self, new_slots: np.ndarray, hit_counts: np.ndarray, p: np.ndarray
    ) -> np.ndarray:
        """Fold the new points' ray hits into the cached neighbour counts.

        ``hit_counts[i]`` is the number of confirmed hits of ``new_slots[i]``'s
        ray and ``p`` the hit slots of all rays.  Returns the *promoted*
        slots: existing points pushed over the ``min_pts`` threshold by the
        arrivals.
        """
        new_mask = np.zeros(self.scene.capacity, dtype=bool)
        new_mask[new_slots] = True
        # Each new point's count is exactly its own ray's confirmed hits.
        self._counts[new_slots] = hit_counts
        # Every hit onto an existing point adds one neighbour there.
        inc = p[~new_mask[p]]
        np.add.at(self._counts, inc, 1)
        touched = np.unique(inc)
        promoted = touched[~self._core[touched] & (self._counts[touched] >= self.min_pts)]
        self._core[new_slots] = self._counts[new_slots] >= self.min_pts
        self._core[promoted] = True
        return promoted

    def _apply_pairs(self, q: np.ndarray, p: np.ndarray) -> tuple[int, int]:
        """Merge discovered ε-pairs into the forest and border anchors.

        Core–core pairs are unioned; (core, non-core) pairs in either
        orientation propose the core as the non-core point's anchor.
        Returns ``(union_hooks, anchor_atomics)`` for the cost model.
        """
        if q.size == 0:
            return 0, 0
        qc = self._core[q]
        pc = self._core[p]

        before = self._forest.num_unions
        both = qc & pc
        self._forest.union_edges(q[both], p[both])
        unions = self._forest.num_unions - before

        border = np.concatenate([p[qc & ~pc], q[~qc & pc]])
        anchor = np.concatenate([q[qc & ~pc], p[~qc & pc]])
        atomics = self._anchor_min(border, anchor)
        return unions, atomics

    def _anchor_min(self, border: np.ndarray, anchor: np.ndarray) -> int:
        """Keep, per border point, the earliest-arrived core neighbour.

        This reproduces the batch implementation's deterministic border
        attachment (first core ray to reach the point wins, and rays launch
        in arrival order), so chunked ingest matches the batch labelling.
        """
        if border.size == 0:
            return 0
        order = np.lexsort((self._arrival[anchor], border))
        b, a = border[order], anchor[order]
        first = np.ones(b.size, dtype=bool)
        first[1:] = b[1:] != b[:-1]
        b, a = b[first], a[first]
        current = self._anchor[b]
        sentinel = np.iinfo(np.int64).max
        current_arrival = np.where(current >= 0, self._arrival[current], sentinel)
        better = self._arrival[a] < current_arrival
        self._anchor[b[better]] = a[better]
        return int(better.sum())

    def _window_labels(self, win: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Canonical labels and core mask for the window slots ``win``."""
        core_mask = self._core[win].copy()
        keys = np.full(win.size, NOISE, dtype=np.int64)
        if core_mask.any():
            keys[core_mask] = self._forest.find_many(win[core_mask])
        anchors = self._anchor[win]
        border = ~core_mask & (anchors >= 0)
        if border.any():
            keys[border] = self._forest.find_many(anchors[border])
        return canonicalize_labels(keys), core_mask

    # ------------------------------------------------------------------ #
    def partial_fit(self, points: np.ndarray) -> "StreamingRTDBSCAN":
        """Ingest one chunk (estimator-API spelling of :meth:`update`).

        Returns ``self`` so calls chain; the per-update record is available
        via :meth:`result` or by using :meth:`update` directly.
        """
        self.update(points)
        return self

    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Feed ``points`` as one chunk and return the window labelling.

        On a fresh, unbounded-window engine this is exactly batch
        :func:`repro.dbscan.rt_dbscan` on the same points; on a live engine
        it is one more incremental update.
        """
        self.update(points)
        return self.result()

    def consume(self, chunks) -> list[StreamUpdate]:
        """Feed every chunk of an iterable through :meth:`update`."""
        return [self.update(chunk) for chunk in chunks]

    def result(self) -> DBSCANResult:
        """The current window as a batch-style :class:`DBSCANResult`.

        Lets callers reuse the agreement metrics and report formatters that
        operate on batch results.
        """
        win = self._window_slots()
        labels, core_mask = self._window_labels(win)
        with native_dispatch.overrides(self.native, self.native_threads):
            kernel_tier = native_dispatch.active_tier()
        return DBSCANResult(
            labels=labels,
            core_mask=core_mask,
            params=self.params,
            algorithm="streaming-rt-dbscan",
            report=self._last_report,
            neighbor_counts=self._counts[win].copy(),
            extra={
                "scene": self.scene.summary(),
                "window_arrivals": self._arrival[win].copy(),
                "kernel_tier": kernel_tier,
                "backend": self.backend,
                "restored": self.restored,
            },
        )

    def summary(self) -> dict:
        """Running totals for reports and benchmarks."""
        return {
            "num_updates": self.num_updates,
            "points_ingested": self.points_ingested,
            "points_evicted": self.points_evicted,
            "window_size": self.window_size,
            "total_simulated_seconds": self.total_simulated_seconds,
            "total_wall_seconds": self.total_wall_seconds,
            "counts": self.total_counts.as_dict(),
            "scene": self.scene.summary(),
        }

    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of the current window state.

        Bundles the window labelling with the engine's running totals — the
        payload the service layer's ``snapshot`` op returns — plus an
        ``"engine"`` section carrying everything :meth:`restore` needs to
        rebuild an equivalent engine: constructor parameters, the window
        points in arrival order, their arrival numbers, and the running
        totals.  Arrays come back as plain lists so the snapshot serialises
        directly (the service's checkpoint store writes exactly this dict).
        """
        win = self._window_slots()
        labels, core_mask = self._window_labels(win)
        return {
            "window_size": int(win.size),
            "num_clusters": int((np.unique(labels) >= 0).sum()),
            "num_noise": int((labels == NOISE).sum()),
            "labels": labels.tolist(),
            "core_mask": core_mask.tolist(),
            "window_arrivals": self._arrival[win].tolist(),
            "released": self._released,
            "summary": self.summary(),
            "engine": {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "eps": float(self.eps),
                "min_pts": int(self.min_pts),
                "window": self.window,
                "backend": self.backend,
                "builder": self.builder,
                "leaf_size": int(self.scene.leaf_size),
                "chunk_size": int(self.scene.chunk_size),
                "capacity": int(self.scene.capacity),
                "native": self.native,
                "native_threads": self.native_threads,
                "points": self.scene.centers[win].tolist(),
                "arrivals": self._arrival[win].tolist(),
                "next_arrival": int(self._next_arrival),
                "totals": {
                    "num_updates": self.num_updates,
                    "points_ingested": self.points_ingested,
                    "points_evicted": self.points_evicted,
                    "total_simulated_seconds": self.total_simulated_seconds,
                    "total_wall_seconds": self.total_wall_seconds,
                    "counts": self.total_counts.as_dict(),
                },
            },
        }

    @classmethod
    def validate_snapshot(cls, snapshot: dict) -> dict:
        """Check a snapshot's engine section; returns it or raises ValueError.

        Structural validation only (format tag, schema version, array shape
        and arrival-order invariants) — cheap enough for the offline
        ``--restore-check`` diagnostic to run over a whole checkpoint
        directory without replaying any window.
        """
        if not isinstance(snapshot, dict) or "engine" not in snapshot:
            raise ValueError("snapshot has no 'engine' section (pre-durability record?)")
        sec = snapshot["engine"]
        if sec.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"unrecognised snapshot format {sec.get('format')!r}")
        if sec.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported snapshot version {sec.get('version')!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        points = np.asarray(sec.get("points", []), dtype=np.float64)
        arrivals = np.asarray(sec.get("arrivals", []), dtype=np.int64)
        if points.size and (points.ndim != 2 or points.shape[1] != 3):
            raise ValueError(f"snapshot points must be (n, 3), got shape {points.shape}")
        n = points.shape[0] if points.size else 0
        if arrivals.shape != (n,):
            raise ValueError(
                f"snapshot arrivals length {arrivals.shape} does not match {n} points"
            )
        if n and np.any(np.diff(arrivals) <= 0):
            raise ValueError("snapshot arrivals must be strictly increasing")
        if n and int(sec.get("next_arrival", -1)) <= int(arrivals[-1]):
            raise ValueError("snapshot next_arrival must exceed the last window arrival")
        window = sec.get("window")
        if window is not None and n > int(window):
            raise ValueError(f"snapshot window holds {n} points but window={window}")
        if not np.isfinite(points).all():
            raise ValueError("snapshot points must be finite")
        return sec

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        *,
        device: RTDevice | None = None,
        policy: RefitPolicy | None = None,
    ) -> "StreamingRTDBSCAN":
        """Rebuild an engine from a :meth:`snapshot` record.

        The window points are replayed as one update on a fresh engine —
        counts, core flags, border anchors and the union–find forest are all
        pure functions of the live window, so the replay reproduces them
        exactly — and the arrival numbering is then restored from the
        snapshot, so every later update (ingest, eviction order, border
        tie-breaks) proceeds bit-identically to an engine that never
        stopped.  Raises ``ValueError`` for structurally invalid snapshots.
        """
        sec = cls.validate_snapshot(snapshot)
        points = np.asarray(sec["points"], dtype=np.float64)
        n = points.shape[0] if points.size else 0
        engine = cls(
            sec["eps"],
            sec["min_pts"],
            window=sec["window"],
            device=device,
            policy=policy,
            backend=sec.get("backend") or None,
            builder=sec.get("builder", "lbvh"),
            leaf_size=sec.get("leaf_size", 4),
            chunk_size=sec.get("chunk_size", 16384),
            initial_capacity=max(256, int(sec.get("capacity", 0)), n),
            native=sec.get("native"),
            native_threads=sec.get("native_threads"),
        )
        if n:
            engine.update(points)
            win = engine._window_slots()
            engine._arrival[win] = np.asarray(sec["arrivals"], dtype=np.int64)
        engine._next_arrival = int(sec["next_arrival"])
        totals = sec.get("totals") or {}
        engine.num_updates = int(totals.get("num_updates", engine.num_updates))
        engine.points_ingested = int(totals.get("points_ingested", engine.points_ingested))
        engine.points_evicted = int(totals.get("points_evicted", engine.points_evicted))
        engine.total_simulated_seconds = float(
            totals.get("total_simulated_seconds", engine.total_simulated_seconds)
        )
        engine.total_wall_seconds = float(
            totals.get("total_wall_seconds", engine.total_wall_seconds)
        )
        counts = totals.get("counts")
        if counts:
            engine.total_counts = OpCounts(**{
                k: int(v) for k, v in counts.items()
                if k in OpCounts.__dataclass_fields__
            })
        engine.restored = True
        return engine

    # ------------------------------------------------------------------ #
    @property
    def released(self) -> bool:
        """True while the device-side scene is freed (see :meth:`release`)."""
        return self._released

    def release(self) -> None:
        """Free the device-side scene (idempotent).

        Repeated calls are no-ops: only the first call after the engine last
        touched the scene frees anything, and :attr:`num_releases` counts
        those effective releases — which is how the service layer's tests
        assert that eviction and shutdown tear a session down *exactly once*.
        Ingesting again after a release transparently rebuilds the scene.
        """
        if self._released:
            return
        self.scene.release()
        self._released = True
        self.num_releases += 1

    def __enter__(self) -> "StreamingRTDBSCAN":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
