"""Incrementally maintained ε-sphere scene.

The batch pipeline rebuilds the whole scene per run; a stream cannot afford
that, so :class:`StreamingScene` keeps the spheres in a *slot buffer* sized
above the live window:

* **add**    — new points take the lowest free slots, then fresh ones; once
  a tree exists, each point takes the slot of matching rank along the last
  build's Morton curve, so refits stretch leaves as little as possible;
* **evict**  — a slot is *parked*: its sphere collapses to radius zero and
  moves to a point outside the data extent, so it can never produce a hit
  and barely disturbs traversal;
* **commit** — after the slot edits, the acceleration structure is brought
  up to date either by a *refit* (an OptiX accel update over the existing
  topology, priced by :meth:`DeviceCostModel.refit_time_s`) or by a full
  *rebuild* (new LBVH/SAH tree over the slot buffer), as decided by the
  :class:`~repro.streaming.policy.RefitPolicy`.

The buffer starts at ``initial_capacity`` slots and doubles when it fills;
growth invalidates the tree topology and therefore forces a rebuild, which
is why a caller that knows its feed sizes the buffer up front with
:func:`feed_capacity`.  All query launches run
through the regular :class:`~repro.rtcore.pipeline.ScenePipeline`, so their
stats record node visits, intersection-program calls and kernel launches
exactly as in the batch path.
"""

from __future__ import annotations

import numpy as np

from ..api.registry import make_backend
from ..geometry.morton import morton3d_30
from ..geometry.sphere import SphereGeometry
from ..perf.cost_model import OpCounts
from ..rtcore.counters import LaunchStats
from ..rtcore.device import RTDevice
from ..rtcore.pipeline import ScenePipeline
from ..rtcore.programs import SphereProgram
from .policy import RefitPolicy

__all__ = ["StreamingScene", "HostStreamingScene", "feed_capacity"]


def feed_capacity(rows: int, window: int | None, chunk_size: int) -> int:
    """Slot-buffer size for a feed of ``rows`` points in ``chunk_size`` chunks.

    Eviction runs before insertion, so a window holds at most ``window``
    live slots; one in-flight chunk of headroom on top keeps a steady feed
    from ever paying a growth-forced rebuild.  An unbounded window holds the
    whole feed.  Never below the scene's default of 256 slots.
    """
    if window is None:
        return max(256, rows)
    return max(256, min(window, rows) + chunk_size)


class StreamingScene:
    """Slot-buffer ε-sphere scene with refit-aware maintenance.

    Parameters
    ----------
    eps:
        Sphere radius (the DBSCAN ε).
    device:
        Simulated RT device whose cost model prices all work.
    builder, leaf_size, chunk_size:
        Acceleration-structure and launch parameters, as in the batch path.
    initial_capacity:
        Starting size of the slot buffer; it doubles whenever it fills.
    """

    def __init__(
        self,
        eps: float,
        device: RTDevice | None = None,
        *,
        builder: str = "lbvh",
        leaf_size: int = 4,
        chunk_size: int = 16384,
        initial_capacity: int = 256,
    ) -> None:
        if eps <= 0 or not np.isfinite(eps):
            raise ValueError("eps must be a positive finite number")
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be positive")
        self.eps = float(eps)
        self.device = device or RTDevice()
        self.builder = builder
        self.leaf_size = leaf_size
        self.chunk_size = chunk_size

        self.capacity = int(initial_capacity)
        self.centers = np.zeros((self.capacity, 3), dtype=np.float64)
        self.radii = np.zeros(self.capacity, dtype=np.float64)
        self.active = np.zeros(self.capacity, dtype=bool)
        self._free: list[int] = []
        self._high_water = 0
        #: per-slot Morton code and its ``(lower, span)`` frame, recorded at
        #: the last rebuild; :meth:`add` places arrivals along that curve.
        self._slot_codes: np.ndarray | None = None
        self._frame: tuple[np.ndarray, np.ndarray] | None = None

        self.pipeline: ScenePipeline | None = None
        self._needs_rebuild = True
        self._churned_since_build = 0

        #: maintenance statistics (exposed in benchmark reports).
        self.num_builds = 0
        self.num_refits = 0
        self.build_prims_total = 0
        self.refit_prims_total = 0

    # ------------------------------------------------------------------ #
    @property
    def num_active(self) -> int:
        return int(self.active.sum())

    def active_slots(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    # ------------------------------------------------------------------ #
    def _grow(self, needed: int) -> None:
        new_cap = max(2 * self.capacity, needed)
        pad = new_cap - self.capacity
        self.centers = np.vstack([self.centers, np.zeros((pad, 3))])
        self.radii = np.concatenate([self.radii, np.zeros(pad)])
        self.active = np.concatenate([self.active, np.zeros(pad, dtype=bool)])
        self.capacity = new_cap
        self._needs_rebuild = True

    def add(self, points3: np.ndarray) -> np.ndarray:
        """Activate one ε-sphere per row of ``points3``; returns their slots.

        ``slots[i]`` holds ``points3[i]``.  The slot set is the lowest free
        ids, then fresh ones past the high-water mark (growing the buffer,
        which marks the structure for rebuild, when those run out).  While
        the last build's tree is still valid, the slots and the points are
        both sorted along that build's Morton curve and paired rank for
        rank: each point takes the freed slot whose leaf sits nearest it,
        so a refit stretches that leaf, and its ancestors, as little as
        possible.  Otherwise (before the first build, or with a growth
        rebuild pending) slots are handed out in arrival order.  The caller
        must follow up with :meth:`commit`.
        """
        points3 = np.asarray(points3, dtype=np.float64)
        k = points3.shape[0]
        self._free.sort()
        recycled = self._free[:k]
        self._free = self._free[k:]
        fresh_needed = k - len(recycled)
        if self._high_water + fresh_needed > self.capacity:
            self._grow(self._high_water + fresh_needed)
        fresh = list(range(self._high_water, self._high_water + fresh_needed))
        self._high_water += fresh_needed
        slots = np.asarray(recycled + fresh, dtype=np.intp)
        if self._slot_codes is not None and not self._needs_rebuild:
            by_code = slots[np.argsort(self._slot_codes[slots], kind="stable")]
            slots[np.argsort(self._morton(points3), kind="stable")] = by_code
        self.centers[slots] = points3
        self.radii[slots] = self.eps
        self.active[slots] = True
        self._churned_since_build += k
        return slots

    def _morton(self, points3: np.ndarray) -> np.ndarray:
        """30-bit Morton codes in the last build's frame (outliers clipped)."""
        lo, span = self._frame
        return morton3d_30((points3 - lo) / span)

    def deallocate(self, slots: np.ndarray) -> None:
        """Park ``slots``: zero radius, centre outside the data extent."""
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size == 0:
            return
        self.active[slots] = False
        self.radii[slots] = 0.0
        self.centers[slots] = self._park_point()
        self._free.extend(int(s) for s in slots)
        self._churned_since_build += int(slots.size)

    def _park_point(self) -> np.ndarray:
        """A point safely outside the live data extent.

        Parked spheres have radius zero, so they can never confirm a hit;
        placing them just past the active bounding box (rather than at some
        astronomical coordinate) keeps the Morton quantisation of a later
        rebuild from squeezing the real data into a single cell.
        """
        if not self.active.any():
            return np.full(3, 1.0e6)
        act = self.centers[self.active]
        hi = act.max(axis=0)
        extent = float((hi - act.min(axis=0)).max())
        return hi + max(extent, 1.0) * 0.5 + 4.0 * self.eps

    # ------------------------------------------------------------------ #
    @property
    def churn_fraction(self) -> float:
        if self.capacity == 0:
            return 0.0
        return self._churned_since_build / self.capacity

    def commit(self, policy: RefitPolicy) -> tuple[str, float, OpCounts]:
        """Bring the acceleration structure up to date.

        Returns ``(action, simulated_seconds, counts)`` where ``action`` is
        ``"refit"`` or ``"rebuild"``.  Both paths count per-primitive
        refit/build work plus one kernel launch.
        """
        action = policy.choose(
            cost_model=self.device.cost_model,
            num_prims=self.capacity,
            churn_fraction=self.churn_fraction,
            has_rt_cores=self.device.has_rt_cores,
            structure_valid=self.pipeline is not None and not self._needs_rebuild,
        )
        if action == "rebuild":
            seconds = self._rebuild()
            counts = OpCounts(bvh_build_prims=self.capacity, kernel_launches=1)
        else:
            # Refit keeps the stale topology, so churn keeps accumulating
            # until a rebuild restores tree quality.
            assert self.pipeline is not None
            seconds = self.pipeline.refit_accel()
            counts = OpCounts(bvh_refit_prims=self.capacity, kernel_launches=1)
            self.num_refits += 1
            self.refit_prims_total += self.capacity
        return action, seconds, counts

    def _rebuild(self) -> float:
        if self.pipeline is not None:
            self.pipeline.release()
        # Park every inactive slot (including never-used buffer slack) so the
        # new tree groups the dead primitives into one far-away subtree.
        inactive = ~self.active
        if inactive.any():
            self.centers[inactive] = self._park_point()
            self.radii[inactive] = 0.0
        self._record_slot_codes()
        geometry = SphereGeometry(self.centers, self.radii)
        self.pipeline = ScenePipeline(
            device=self.device,
            geometry=geometry,
            builder=self.builder,
            leaf_size=self.leaf_size,
            chunk_size=self.chunk_size,
        )
        seconds = self.pipeline.build_accel()
        self._needs_rebuild = False
        self._churned_since_build = 0
        self.num_builds += 1
        self.build_prims_total += self.capacity
        return seconds

    def _record_slot_codes(self) -> None:
        """Record every slot's Morton code in the active centres' bounding box.

        Parked slots lie outside that box and clip to its far corner, so
        they pair with the arrivals that sort last.
        """
        if not self.active.any():
            self._slot_codes = self._frame = None
            return
        act = self.centers[self.active]
        lo = act.min(axis=0)
        span = act.max(axis=0) - lo
        self._frame = (lo, np.where(span > 0, span, 1.0))
        self._slot_codes = self._morton(self.centers)

    # ------------------------------------------------------------------ #
    def query_csr(
        self, slots: np.ndarray, row_counts: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """ε-rays from the given (active) slots, confirmed hits as CSR.

        Row ``i`` of the returned ``(indptr, indices)`` adjacency holds the
        hit slot ids of query slot ``slots[i]``.  The sphere program applies
        the exact distance test, rejects parked primitives through the
        ``active`` mask, and excludes the self hit through the slot map.
        Runs through the zero-materialisation CSR launch, so the candidate
        pair set is confirmed chunk-by-chunk inside the traversal.  A caller
        that holds the slots' exact neighbour counts passes them as
        ``row_counts``: on the native tier the launch then runs its fill
        pass alone and records the same traversal, and on either tier it
        raises ``ValueError`` if the hits differ from them.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp), LaunchStats()
        if self.pipeline is None:
            raise RuntimeError("commit() must run before querying the scene")
        program = SphereProgram(self.centers, self.eps, self_map=slots, active=self.active)
        return self.pipeline.launch_csr_queries(
            self.centers[slots], program, row_counts=row_counts
        )

    def release(self) -> None:
        """Free the device-side scene."""
        if self.pipeline is not None:
            self.pipeline.release()
            self.pipeline = None
        self._needs_rebuild = True

    def summary(self) -> dict:
        return {
            "capacity": self.capacity,
            "num_active": self.num_active,
            "num_builds": self.num_builds,
            "num_refits": self.num_refits,
            "build_prims_total": self.build_prims_total,
            "refit_prims_total": self.refit_prims_total,
            "churn_fraction": self.churn_fraction,
        }


class HostStreamingScene(StreamingScene):
    """Slot-buffer window scene answered by a host neighbour backend.

    Same slot-buffer lifecycle as :class:`StreamingScene` (add / deallocate
    / commit / query), but instead of maintaining an ε-sphere BVH on the
    simulated RT device, :meth:`commit` rebuilds one of the registered host
    backends (``grid`` / ``kdtree`` / ``brute``) over the live window and
    :meth:`query_csr` answers as a rows query of that index.  Because
    every exact backend returns the canonical ε-adjacency, the streaming
    engine produces bit-identical labels on this scene and on the RT scene —
    which is what lets the snapshot/restore parity suite assert recovery on
    every substrate the engine supports.

    Host index structures have no refit path: any churn since the last
    commit forces a rebuild (host builds are cheap — the backends price
    their own shader-core builds).  With no refit tree to keep tight,
    :meth:`add` hands out slots in arrival order.
    """

    def __init__(
        self,
        eps: float,
        device: RTDevice | None = None,
        *,
        backend: str = "grid",
        leaf_size: int = 4,
        chunk_size: int = 16384,
        initial_capacity: int = 256,
    ) -> None:
        super().__init__(
            eps,
            device,
            leaf_size=leaf_size,
            chunk_size=chunk_size,
            initial_capacity=initial_capacity,
        )
        self.backend_name = backend
        self._backend = None
        #: slot ids (ascending) the live index was built over; CSR indices
        #: from the backend are positions into this map.
        self._slot_map = np.empty(0, dtype=np.intp)

    # ------------------------------------------------------------------ #
    def commit(self, policy: RefitPolicy) -> tuple[str, float, OpCounts]:
        """Rebuild the host index over the live window (no refit path)."""
        if self._backend is not None:
            self._backend.release()
            self._backend = None
        slots = self.active_slots()
        self._slot_map = slots
        self._needs_rebuild = False
        self._churned_since_build = 0
        if slots.size == 0:
            return "none", 0.0, OpCounts()
        self._backend = make_backend(
            self.backend_name, self.centers[slots], self.eps, device=self.device
        )
        self.num_builds += 1
        self.build_prims_total += int(slots.size)
        return "rebuild", self._backend.build_seconds, OpCounts(kernel_launches=1)

    def query_csr(
        self, slots: np.ndarray, row_counts: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, LaunchStats]:
        """ε-queries from committed slots: a rows query of the committed index.

        Each slot maps to its row of the index the last :meth:`commit`
        built, through the slot map, so the backend drops the query's own
        point by its id — the RT scene's ``prim != slots[q]`` rule.  A slot
        that commit did not index raises ``RuntimeError``.  Indices come
        back in slot space (ascending per row: the backend CSR is ascending
        in row space and the slot map is monotone).  ``row_counts`` seed the
        backend's fill, which raises ``ValueError`` if the hits differ: the
        contract of :meth:`StreamingScene.query_csr`.  The fill's stats are
        the query launch's.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp), LaunchStats()
        rows = np.searchsorted(self._slot_map, slots)
        if (rows >= self._slot_map.size).any() or (self._slot_map[rows] != slots).any():
            raise RuntimeError("commit() must index every query slot before it is queried")
        indptr, indices, stats = self._backend.neighbor_csr(rows=rows, row_counts=row_counts)
        return indptr, self._slot_map[indices], stats

    def release(self) -> None:
        if self._backend is not None:
            self._backend.release()
            self._backend = None
        self._slot_map = np.empty(0, dtype=np.intp)
        self._needs_rebuild = True

    def summary(self) -> dict:
        payload = super().summary()
        payload["backend"] = self.backend_name
        return payload
