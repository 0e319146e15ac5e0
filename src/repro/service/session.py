"""Tenant sessions and the LRU/TTL session pool.

A :class:`Session` owns one :class:`~repro.streaming.engine.StreamingRTDBSCAN`
engine plus a bounded queue of pending chunks; its :meth:`Session.run`
coroutine is the *only* place the engine is touched, so per-tenant updates
are strictly serialised (which is what makes service labels bit-identical to
a serial ``consume()`` of the same feed) while different tenants' workers
interleave freely on the event loop.

The :class:`SessionManager` is the pool above the sessions: tenant → session
lookup in LRU order, capacity-cap enforcement (evict the least-recently-used
*idle* session to make room, otherwise signal capacity backpressure), TTL
sweeps over idle sessions, and the exactly-once teardown path — every
eviction route funnels through :meth:`SessionManager.evict`, which calls the
engine's idempotent ``release()`` so slot-buffer scenes are reclaimed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from collections import OrderedDict, deque
from typing import Callable

import numpy as np

from ..api.registry import make_clusterer
from ..streaming import StreamingRTDBSCAN, feed_capacity
from .config import ServiceConfig
from .faults import FaultInjector
from .metrics import ServiceMetrics, SessionMetrics
from .store import CheckpointError, CorruptCheckpointError, SnapshotStore

__all__ = ["Session", "SessionManager", "CapacityError", "SessionError"]

logger = logging.getLogger(__name__)


class CapacityError(RuntimeError):
    """The session pool is full and no idle session can be evicted."""


class SessionError(RuntimeError):
    """The session cannot accept the request (failed engine or bad input)."""


class Session:
    """One tenant's streaming engine behind a bounded micro-batching queue."""

    def __init__(
        self,
        tenant: str,
        engine: StreamingRTDBSCAN,
        config: ServiceConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
        service_metrics: ServiceMetrics | None = None,
        faults: FaultInjector | None = None,
        restored: bool = False,
    ) -> None:
        self.tenant = tenant
        self.engine = engine
        self.config = config
        self._clock = clock
        self._faults = faults
        #: True when this session was rebuilt from a spilled checkpoint.
        self.restored = restored
        #: spill outcome, set by the manager at eviction: None while live,
        #: then True (window checkpointed) or False (window dropped).
        self.spilled: bool | None = None
        self.spill_error: str | None = None
        self.metrics = SessionMetrics(tenant, clock(), latency_window=config.latency_window)
        self._service_metrics = service_metrics

        # Never coalesce past the engine's sliding window: an update larger
        # than the window truncates to its newest points, which would skip
        # arrival numbers the serial per-chunk feed assigns — breaking the
        # bit-identity guarantee.  (A single oversized chunk still passes
        # through untouched; serial consume truncates it identically.)
        self._max_batch_points = config.max_batch_points
        if engine.window is not None:
            self._max_batch_points = min(self._max_batch_points, int(engine.window))

        self._queue: deque[np.ndarray] = deque()
        self._queued_points = 0
        self._cond = asyncio.Condition()
        self._busy = False
        self._stopping = False
        self.closed = False
        #: point dimensionality pinned by the first accepted chunk; later
        #: chunks must match so coalesced batches always vstack cleanly.
        self._dim: int | None = None
        #: set when an engine update raised: the session is failed and
        #: refuses further ingest until the tenant evicts it.
        self.error: str | None = None

    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def queued_points(self) -> int:
        return self._queued_points

    @property
    def idle(self) -> bool:
        """No queued work and no update in flight."""
        return not self._queue and not self._busy

    def idle_for(self, now: float) -> float:
        return now - self.metrics.last_active_at

    # ------------------------------------------------------------------ #
    async def enqueue(self, chunk: np.ndarray) -> bool:
        """Accept one chunk, or refuse it when the queue budget is spent.

        Returns True when the chunk was queued; False signals backpressure
        (the caller should reply ``busy`` with the config's retry hint).
        Raises :class:`SessionError` for chunks the session can never take:
        a failed session, or a chunk whose dimensionality differs from the
        one the first accepted chunk pinned (mixed-dim chunks would make the
        coalescing ``np.vstack`` raise inside the worker).
        """
        async with self._cond:
            # Every check sits inside the lock: concurrent enqueues suspended
            # on `async with` must not all pass a stale bound/state check.
            now = self._clock()
            if self._stopping or self.closed:
                return False
            if self.error is not None:
                raise SessionError(
                    f"session for tenant {self.tenant!r} failed ({self.error}); "
                    "evict the tenant to reset it"
                )
            dim = int(chunk.shape[1])
            if self._dim is None:
                self._dim = dim
            elif dim != self._dim:
                raise SessionError(
                    f"tenant {self.tenant!r} session holds {self._dim}-d points; "
                    f"got a {dim}-d chunk (per-session dimensionality is fixed "
                    "by the first chunk)"
                )
            if len(self._queue) >= self.config.max_queue_chunks:
                self.metrics.observe_reject(now)
                return False
            self._queue.append(chunk)
            self._queued_points += int(chunk.shape[0])
            self.metrics.observe_accept(chunk.shape[0], now)
            self._cond.notify_all()
        return True

    def _take_batch(self) -> list[np.ndarray]:
        """Pop the next micro-batch (≥1 chunk, capped by the batch budgets)."""
        batch: list[np.ndarray] = [self._queue.popleft()]
        points = batch[0].shape[0]
        while (
            self._queue
            and len(batch) < self.config.max_batch_chunks
            and points + self._queue[0].shape[0] <= self._max_batch_points
        ):
            points += self._queue[0].shape[0]
            batch.append(self._queue.popleft())
        self._queued_points -= points
        return batch

    async def run(self) -> None:
        """Worker loop: drain the queue in micro-batches, one update each.

        Chunks queued behind the in-flight update coalesce into the next
        batch — one ``np.vstack`` + one ``engine.update()`` call — which is
        exactly as many points in the same arrival order as the serial
        per-chunk feed, so the labelling is unchanged while per-point
        overhead (scene commits, launches, bookkeeping) is amortised.
        """
        while True:
            async with self._cond:
                while not self._queue and not self._stopping:
                    await self._cond.wait()
                if self._stopping and not self._queue:
                    return
                batch = self._take_batch()
                self._busy = True
            failure: str | None = None
            try:
                points = batch[0] if len(batch) == 1 else np.vstack(batch)
                t0 = time.perf_counter()
                if self._faults is not None:
                    # Chaos hook: an armed error takes the same failed-session
                    # path as an organic engine exception; an armed delay
                    # models a slow update (and shows up in the latency ring).
                    self._faults.fire("session.update")
                self.engine.update(points)
                wall = time.perf_counter() - t0
                self.metrics.observe_batch(len(batch), points.shape[0], wall, self._clock())
                if self._service_metrics is not None:
                    self._service_metrics.observe_batch(len(batch), points.shape[0])
            except Exception as exc:
                # A raising update must not kill the worker: acked chunks
                # would then sit unprocessed forever and drain() would hang
                # every read/evict/shutdown on this tenant.  Fail the session
                # instead: drop its pending work, wake drain() waiters, and
                # let enqueue refuse further chunks until the tenant evicts.
                failure = f"{type(exc).__name__}: {exc}"
                logger.exception(
                    "update failed for tenant %r; failing the session", self.tenant
                )
            finally:
                async with self._cond:
                    if failure is not None:
                        self.error = failure
                        self.metrics.observe_update_failure(self._clock())
                        if self._service_metrics is not None:
                            self._service_metrics.observe_update_failure()
                        self._queue.clear()
                        self._queued_points = 0
                    self._busy = False
                    self._cond.notify_all()
            # Yield so other sessions' workers interleave between batches.
            await asyncio.sleep(0)

    async def drain(self) -> None:
        """Wait until every accepted chunk has been folded into the engine."""
        async with self._cond:
            while self._queue or self._busy:
                await self._cond.wait()

    async def stop(self) -> None:
        """Ask the worker to exit once the queue is empty."""
        async with self._cond:
            self._stopping = True
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the engine (idempotent; the pool's teardown endpoint)."""
        if self.closed:
            return
        self.closed = True
        self.engine.release()

    def stats(self, now: float | None = None) -> dict:
        now = self._clock() if now is None else now
        payload = self.metrics.as_dict(
            now, queue_depth=self.queue_depth, queued_points=self._queued_points
        )
        payload["error"] = self.error
        payload["restored"] = self.restored
        payload["spilled"] = self.spilled
        payload["spill_error"] = self.spill_error
        payload["engine"] = self.engine.summary()
        return payload


class SessionManager:
    """LRU-ordered pool of tenant sessions with capacity and TTL policies."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
        metrics: ServiceMetrics | None = None,
        store: SnapshotStore | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.config = config
        self._clock = clock
        self.metrics = metrics or ServiceMetrics()
        self.store = store
        self.faults = faults
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        # Fail fast on a batch-only template (instead of at first ingest):
        # resolve() also validates backend/knob consistency.
        entry, _ = config.spec.resolve()
        if entry.name != "streaming-rt-dbscan":
            raise ValueError(
                f"service spec algorithm {entry.name!r} does not support "
                "partial_fit; tenant sessions run 'streaming-rt-dbscan'"
            )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._sessions

    def tenants(self) -> list[str]:
        return list(self._sessions)

    def get(self, tenant: str, *, touch: bool = True) -> Session | None:
        session = self._sessions.get(tenant)
        if session is not None and touch:
            self._sessions.move_to_end(tenant)
            session.metrics.touch(self._clock())
        return session

    # ------------------------------------------------------------------ #
    def _build_engine(self, first_chunk: np.ndarray | None) -> StreamingRTDBSCAN:
        spec = self.config.spec
        if first_chunk is not None:
            # The first chunk stands in for the feed: room for a window plus
            # one chunk that size keeps a steady feed from paying a
            # growth-forced rebuild.  A capacity the spec sets wins.
            rows = int(first_chunk.shape[0])
            capacity = feed_capacity(rows, spec.params.get("window"), rows)
            spec = dataclasses.replace(
                spec, params={"initial_capacity": capacity, **spec.params}
            )
        return make_clusterer(spec)

    def get_or_create(
        self, tenant: str, *, first_chunk: np.ndarray | None = None
    ) -> tuple[Session, bool]:
        """The tenant's session, creating (and possibly evicting) as needed.

        Returns ``(session, created)``.  At capacity, the least-recently-used
        *idle* session is evicted to make room; when every session has work
        in flight, :class:`CapacityError` is raised and the service turns it
        into capacity backpressure (a ``busy`` response).
        """
        session = self.get(tenant)
        if session is not None:
            return session, False
        session = self.restore_session(tenant)
        if session is None:
            self._make_room()
            session = Session(tenant, self._build_engine(first_chunk), self.config,
                              clock=self._clock, service_metrics=self.metrics,
                              faults=self.faults)
            self._sessions[tenant] = session
            self.metrics.observe_session_created()
        return session, True

    def _make_room(self) -> None:
        """Ensure the pool has a free slot, LRU-evicting an idle session."""
        if len(self._sessions) < self.config.max_sessions:
            return
        victim = next(
            (t for t, s in self._sessions.items() if s.idle), None
        )
        if victim is None:
            raise CapacityError(
                f"session pool is full ({self.config.max_sessions} busy sessions)"
            )
        self.evict(victim, reason="lru")

    def restore_session(self, tenant: str) -> Session | None:
        """Rebuild the tenant's session from its spilled checkpoint, if any.

        Returns ``None`` when there is no store, no checkpoint, or the
        checkpoint cannot be used (corrupt files are quarantined by the
        store; restore failures are counted) — the caller then treats the
        tenant as fresh.  May raise :class:`CapacityError` exactly like a
        fresh create.
        """
        if self.store is None:
            return None
        path = self.store.path_for(tenant)
        if not path.exists():
            return None
        t0 = time.perf_counter()
        try:
            record = self.store.load(tenant)
            engine = StreamingRTDBSCAN.restore(record["snapshot"])
        except CorruptCheckpointError as exc:
            # The store already moved the file into quarantine/; the tenant
            # starts fresh and the bad bytes stay on disk for forensics.
            logger.warning("checkpoint for tenant %r quarantined: %s", tenant, exc)
            self.metrics.observe_checkpoint_corrupt()
            self.metrics.observe_restore_failure()
            return None
        except (CheckpointError, ValueError, KeyError, TypeError) as exc:
            logger.warning("restore for tenant %r failed: %s; starting fresh", tenant, exc)
            self.metrics.observe_restore_failure()
            return None
        self._make_room()
        session = Session(tenant, engine, self.config, clock=self._clock,
                          service_metrics=self.metrics, faults=self.faults,
                          restored=True)
        self._sessions[tenant] = session
        self.metrics.observe_restore(time.perf_counter() - t0)
        return session

    # ------------------------------------------------------------------ #
    def evict(self, tenant: str, *, reason: str = "explicit") -> Session | None:
        """Remove and close a session; returns it (already released) or None.

        With a store attached, TTL/LRU/shutdown evictions *spill* the
        engine's snapshot to disk first (the tenant's next request restores
        it); an explicit evict is a tenant reset, so its checkpoint is
        deleted instead.  The outcome lands on the returned session
        (``spilled`` / ``spill_error``) and in the service metrics.
        """
        session = self._sessions.pop(tenant, None)
        if session is None:
            return None
        if self.store is not None and reason == "explicit":
            self.store.delete(tenant)
        if self.store is not None and reason != "explicit":
            session.spilled, session.spill_error = self._spill(session)
        else:
            session.spilled = False
        session.close()
        self.metrics.observe_eviction(reason)
        self.metrics.observe_tenant_eviction(tenant)
        if not session.spilled:
            self.metrics.observe_drop(tenant)
        return session

    def _spill(self, session: Session) -> tuple[bool, str | None]:
        """Checkpoint one session's window; returns (spilled, error)."""
        if session.error is not None:
            return False, f"session failed ({session.error}); window not trusted"
        t0 = time.perf_counter()
        try:
            self.store.save(session.tenant, session.engine.snapshot())
        except CheckpointError as exc:
            logger.warning("spill for tenant %r failed: %s; window dropped",
                           session.tenant, exc)
            self.metrics.observe_checkpoint_failure()
            return False, str(exc)
        self.metrics.observe_spill(session.tenant, time.perf_counter() - t0)
        return True, None

    def sweep(self, now: float | None = None) -> list[Session]:
        """Evict every idle session older than the TTL; returns the evicted."""
        if self.faults is not None:
            # Chaos hook: an armed error propagates into the service's sweep
            # loop, which must log it and keep sweeping.
            self.faults.fire("sweep")
        ttl = self.config.session_ttl_s
        if ttl is None:
            return []
        now = self._clock() if now is None else now
        expired = [
            tenant
            for tenant, session in self._sessions.items()
            if session.idle and session.idle_for(now) > ttl
        ]
        return [self.evict(tenant, reason="ttl") for tenant in expired]

    def close_all(self, *, reason: str = "shutdown") -> list[Session]:
        """Evict every session (shutdown path)."""
        return [self.evict(tenant, reason=reason) for tenant in list(self._sessions)]

    # ------------------------------------------------------------------ #
    def stats(self, now: float | None = None) -> dict:
        now = self._clock() if now is None else now
        return {
            "num_sessions": len(self._sessions),
            "max_sessions": self.config.max_sessions,
            "tenants": {
                tenant: session.stats(now)
                for tenant, session in self._sessions.items()
            },
        }
