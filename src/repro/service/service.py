"""The asyncio multi-tenant clustering service.

:class:`ClusteringService` multiplexes many concurrent streaming scenes —
one :class:`~repro.service.session.Session` per tenant/feed — behind the
typed request protocol:

* ``ingest`` acks as soon as the chunk is accepted into the tenant's bounded
  queue; a per-session worker coroutine coalesces queued chunks into
  micro-batched ``update()`` calls, so a bursty tenant pays one scene commit
  per batch instead of one per chunk (the labelling is invariant to the
  coalescing — only arrival order matters);
* a full queue (or a full session pool with no idle victim) answers ``busy``
  with a ``retry_after_s`` hint — backpressure instead of unbounded memory;
* reads (``query_labels`` / ``snapshot``) drain the tenant's queue first, so
  they always observe every previously-acked chunk;
* a sweeper task evicts sessions idle past the TTL, and every teardown path
  (TTL, LRU capacity eviction, explicit ``evict``, shutdown) funnels through
  the engine's idempotent ``release()`` exactly once, reclaiming the
  slot-buffer scene.

The service is usable in-process::

    async with ClusteringService(config) as service:
        resp = await service.submit(Request.ingest("tenant-a", chunk))

or over the JSON-lines TCP front-end in :mod:`repro.service.tcp`.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Callable

from .config import ServiceConfig
from .faults import FaultInjector
from .protocol import Request, Response
from .session import CapacityError, Session, SessionError, SessionManager
from .store import CheckpointError, SnapshotStore

__all__ = ["ClusteringService"]

logger = logging.getLogger(__name__)


class ClusteringService:
    """Session-pooled, micro-batching front door to the streaming engines.

    Parameters
    ----------
    config:
        Pool/batching/backpressure policy plus the per-tenant clusterer
        template (default :data:`~repro.service.config.DEFAULT_SPEC`).
    clock:
        Monotonic time source; injectable so TTL-eviction tests can drive
        time explicitly.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector` shared with
        the session workers, the sweeper and the checkpoint store, so chaos
        tests can arm deterministic failures on the real code paths.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        faults: FaultInjector | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock
        self.faults = faults
        self.store = (
            SnapshotStore(self.config.state_dir, faults=faults)
            if self.config.state_dir is not None
            else None
        )
        self.sessions = SessionManager(self.config, clock=clock,
                                       store=self.store, faults=faults)
        self.metrics = self.sessions.metrics
        self._workers: dict[str, asyncio.Task] = {}
        self._sweeper: asyncio.Task | None = None
        self._checkpointer: asyncio.Task | None = None
        self._started = False
        self._closed = False
        #: set once a ``shutdown`` request lands; the TCP server awaits it.
        self.shutdown_event = asyncio.Event()

    # ------------------------------------------------------------------ #
    async def start(self) -> "ClusteringService":
        """Start the background sweeper and checkpointer (idempotent)."""
        if not self._started:
            self._started = True
            self.metrics.started_at = self._clock()
            if self.config.session_ttl_s is not None:
                self._sweeper = asyncio.create_task(self._sweep_loop())
            if self.store is not None and self.config.checkpoint_interval_s is not None:
                self._checkpointer = asyncio.create_task(self._checkpoint_loop())
        return self

    async def __aenter__(self) -> "ClusteringService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Drain every session, tear all of them down, stop the sweeper."""
        if self._closed:
            return
        self._closed = True
        for task_attr in ("_sweeper", "_checkpointer"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, task_attr, None)
        for tenant in self.sessions.tenants():
            session = self.sessions.get(tenant, touch=False)
            if session is not None:
                await session.drain()
        for tenant in list(self._workers):
            await self._stop_worker(tenant)
        self.sessions.close_all()
        self.shutdown_event.set()

    # ------------------------------------------------------------------ #
    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.sweep_interval_s)
            try:
                await self.sweep()
            except Exception:
                # A failed pass must not kill the sweeper: TTL eviction would
                # be silently disabled for the rest of the service's life.
                logger.exception("TTL sweep pass failed; sweeper continues")

    async def sweep(self) -> list[str]:
        """One TTL-eviction pass; returns the evicted tenant ids."""
        evicted = self.sessions.sweep(self._clock())
        for session in evicted:
            await self._stop_worker(session.tenant)
        return [s.tenant for s in evicted]

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.checkpoint_interval_s)
            try:
                await self.checkpoint()
            except Exception:
                # A failed pass must not kill the checkpointer: the server
                # would silently stop persisting state for the rest of its
                # life.
                logger.exception("checkpoint pass failed; checkpointer continues")

    async def checkpoint(self, tenant: str | None = None, *, drain: bool = False) -> dict:
        """Checkpoint live sessions to the state dir; returns tenant → outcome.

        The periodic loop calls this without draining — an engine update is
        synchronous with respect to the event loop, so a snapshot taken
        between updates is always consistent (it just may not include
        still-queued chunks).  The ``checkpoint`` admin op passes
        ``drain=True`` so every acked chunk is folded in first.
        """
        if self.store is None:
            return {}
        tenants = [tenant] if tenant is not None else self.sessions.tenants()
        outcome: dict[str, str] = {}
        for name in tenants:
            session = self.sessions.get(name, touch=False)
            if session is None:
                outcome[name] = "unknown"
                continue
            if drain:
                await session.drain()
            if session.error is not None:
                outcome[name] = "failed-session"
                continue
            t0 = time.perf_counter()
            try:
                self.store.save(name, session.engine.snapshot())
            except CheckpointError as exc:
                logger.warning("checkpoint for tenant %r failed: %s", name, exc)
                self.metrics.observe_checkpoint_failure()
                outcome[name] = f"error: {exc}"
                continue
            self.metrics.observe_checkpoint(time.perf_counter() - t0)
            outcome[name] = "written"
        return outcome

    async def _stop_worker(self, tenant: str) -> None:
        task = self._workers.pop(tenant, None)
        if task is None:
            return
        session = self.sessions.get(tenant, touch=False)
        if session is not None:
            await session.stop()
        elif not task.done():
            # Session already gone (evicted): cancel the orphaned worker.
            task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        except Exception:
            # A worker that died on its own must not re-raise here — that
            # would propagate through sweep() and kill the sweeper task.
            logger.exception("worker for tenant %r exited with an error", tenant)

    # ------------------------------------------------------------------ #
    async def submit(self, request: Request | dict) -> Response:
        """Serve one request; never raises for protocol-level failures."""
        if isinstance(request, dict):
            try:
                request = Request.from_dict(request)
            except Exception as exc:
                self.metrics.observe_error()
                return Response(status="error", op=str(request.get("op", "?")),
                                error=str(exc), request_id=request.get("request_id"))
        if self._closed:
            return self._error(request, "service is shut down")
        await self.start()
        self.metrics.observe_request(request.op)
        handler = getattr(self, f"_op_{request.op}")
        try:
            return await handler(request)
        except Exception as exc:  # defensive: one bad request must not kill the loop
            self.metrics.observe_error()
            return self._error(request, f"{type(exc).__name__}: {exc}")

    def _error(self, request: Request, message: str) -> Response:
        return Response(status="error", op=request.op, tenant=request.tenant,
                        error=message, request_id=request.request_id)

    def _busy(self, request: Request, message: str) -> Response:
        return Response(
            status="busy", op=request.op, tenant=request.tenant, error=message,
            retry_after_s=self.config.retry_after_s, request_id=request.request_id,
        )

    async def _start_worker(self, tenant: str, session: Session) -> None:
        """Launch the session's worker, reaping workers of evicted sessions.

        Creating (or restoring) at capacity may have LRU-evicted an idle
        session from the pool; reap any worker whose session is gone before
        the new one starts.
        """
        for stale in [t for t in self._workers if t not in self.sessions]:
            await self._stop_worker(stale)
        self._workers[tenant] = asyncio.create_task(session.run())

    async def _lookup_session(self, request: Request) -> Session | Response:
        """The tenant's live session, restoring a spilled one on demand.

        Returns the session, or the Response to send instead: ``busy`` when
        a restore needs a pool slot and none is free, ``error`` when the
        tenant has neither a live session nor a usable checkpoint.
        """
        session = self.sessions.get(request.tenant)
        if session is not None:
            return session
        try:
            session = self.sessions.restore_session(request.tenant)
        except CapacityError as exc:
            self.metrics.observe_reject()
            return self._busy(request, str(exc))
        if session is None:
            return self._error(request, f"unknown tenant {request.tenant!r}")
        await self._start_worker(request.tenant, session)
        return session

    def _session_failed(self, request: Request, session: Session) -> Response:
        return self._error(
            request,
            f"session failed ({session.error}); evict tenant "
            f"{request.tenant!r} to reset it",
        )

    # ------------------------------------------------------------------ #
    async def _op_ingest(self, request: Request) -> Response:
        try:
            session, created = self.sessions.get_or_create(
                request.tenant, first_chunk=request.points
            )
        except CapacityError as exc:
            self.metrics.observe_reject()
            return self._busy(request, str(exc))
        if created:
            await self._start_worker(request.tenant, session)
        try:
            accepted = await session.enqueue(request.points)
        except SessionError as exc:
            self.metrics.observe_error()
            return self._error(request, str(exc))
        if not accepted:
            self.metrics.observe_reject()
            return self._busy(
                request,
                f"queue full ({self.config.max_queue_chunks} chunks pending)",
            )
        return Response(
            status="ok", op="ingest", tenant=request.tenant,
            body={
                "accepted_points": int(request.points.shape[0]),
                "session_created": created,
                "session_restored": session.restored and created,
                "queue_depth": session.queue_depth,
            },
            request_id=request.request_id,
        )

    async def _op_query_labels(self, request: Request) -> Response:
        session = await self._lookup_session(request)
        if isinstance(session, Response):
            return session
        await session.drain()
        if session.error is not None:
            return self._session_failed(request, session)
        result = session.engine.result()
        body = {
            "labels": result.labels.tolist(),
            "core_mask": result.core_mask.tolist(),
            "window_arrivals": result.extra["window_arrivals"].tolist(),
            "num_clusters": int(result.num_clusters),
            "num_noise": int(result.num_noise),
            "window_size": int(result.labels.shape[0]),
        }
        return Response(status="ok", op="query_labels", tenant=request.tenant,
                        body=body, request_id=request.request_id)

    async def _op_snapshot(self, request: Request) -> Response:
        session = await self._lookup_session(request)
        if isinstance(session, Response):
            return session
        await session.drain()
        if session.error is not None:
            return self._session_failed(request, session)
        return Response(status="ok", op="snapshot", tenant=request.tenant,
                        body=session.engine.snapshot(), request_id=request.request_id)

    async def _op_evict(self, request: Request) -> Response:
        # An explicit evict is a tenant reset: the live session (if any) is
        # torn down *and* the tenant's spilled checkpoint is deleted, so the
        # next request starts genuinely fresh.
        checkpoint_deleted = (
            self.store.delete(request.tenant) if self.store is not None else False
        )
        session = self.sessions.get(request.tenant, touch=False)
        if session is None:
            return Response(
                status="ok", op="evict", tenant=request.tenant,
                body={"evicted": False, "checkpoint_deleted": checkpoint_deleted},
                request_id=request.request_id,
            )
        await session.drain()
        await self._stop_worker(request.tenant)
        self.sessions.evict(request.tenant, reason="explicit")
        return Response(
            status="ok", op="evict", tenant=request.tenant,
            body={"evicted": True, "checkpoint_deleted": checkpoint_deleted},
            request_id=request.request_id,
        )

    async def _op_stats(self, request: Request) -> Response:
        now = self._clock()
        body = {
            "service": self.metrics.as_dict(now),
            "sessions": self.sessions.stats(now),
            "config": self.config.as_dict(),
        }
        if self.store is not None:
            body["store"] = {
                "state_dir": str(self.store.root),
                "checkpoints": len(self.store.paths()),
                "quarantined": (
                    len(list(self.store.quarantine_dir.iterdir()))
                    if self.store.quarantine_dir.exists() else 0
                ),
            }
        return Response(status="ok", op="stats", body=body,
                        request_id=request.request_id)

    async def _op_metrics(self, request: Request) -> Response:
        text = self.metrics.render_prometheus(
            self._clock(), num_sessions=len(self.sessions)
        )
        return Response(
            status="ok", op="metrics",
            body={"content_type": "text/plain; version=0.0.4", "text": text},
            request_id=request.request_id,
        )

    async def _op_checkpoint(self, request: Request) -> Response:
        if self.store is None:
            return self._error(
                request, "service has no state_dir; checkpointing is disabled"
            )
        outcome = await self.checkpoint(request.tenant, drain=True)
        return Response(
            status="ok", op="checkpoint", tenant=request.tenant,
            body={"outcome": outcome, "state_dir": str(self.store.root)},
            request_id=request.request_id,
        )

    async def _op_shutdown(self, request: Request) -> Response:
        await self.aclose()
        return Response(status="ok", op="shutdown",
                        body={"sessions_evicted": self.metrics.total_evictions},
                        request_id=request.request_id)
