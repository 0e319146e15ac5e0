"""Service configuration.

One frozen :class:`ServiceConfig` value describes everything a
:class:`~repro.service.service.ClusteringService` needs: the
:class:`~repro.api.spec.ClustererSpec` template every tenant session is
built from, the capacity and idle-eviction policy of the session pool, and
the micro-batching / backpressure budgets of the per-session request queues.
Keeping it declarative mirrors the rest of the API layer — a config can be
logged, serialised into benchmark records and rebuilt from CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api.spec import ClustererSpec

__all__ = ["ServiceConfig", "DEFAULT_SPEC"]

#: default session template: the streaming engine with a modest window.
DEFAULT_SPEC = ClustererSpec(algo="streaming-rt-dbscan", eps=0.3, min_pts=5)


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration for one multi-tenant clustering service.

    Parameters
    ----------
    spec:
        Clusterer template instantiated once per tenant session.  Must
        resolve to ``streaming-rt-dbscan`` (any ``@backend``);
        window/policy/etc. travel in ``spec.params``.  Unless the spec sets
        ``initial_capacity``, each session's slot buffer is sized from the
        tenant's first chunk with
        :func:`~repro.streaming.scene.feed_capacity`.
    max_sessions:
        Hard cap on concurrently live sessions.  When a new tenant arrives
        at capacity the manager evicts the least-recently-used *idle*
        session; if every session is busy the ingest is rejected with a
        retry hint instead (capacity backpressure).
    session_ttl_s:
        Idle sessions older than this are evicted by the sweeper (their
        engine's ``release()`` reclaims the slot-buffer scene).  ``None``
        disables TTL eviction.
    max_queue_chunks:
        Bound on a session's pending-chunk queue.  A tenant that outruns
        its budget gets a ``busy`` response carrying ``retry_after_s``
        (per-tenant backpressure) rather than unbounded memory growth.
    max_batch_chunks, max_batch_points:
        Micro-batching budgets: a session worker coalesces up to
        ``max_batch_chunks`` queued chunks (stopping early once the batch
        holds ``max_batch_points`` points) into **one** ``update()`` call.
        Coalescing is label-invariant — the engine's labelling depends only
        on arrival order, not chunk boundaries — so batching buys
        throughput without changing any tenant's output.
    sweep_interval_s:
        Cadence of the idle-eviction sweeper task.
    retry_after_s:
        Retry hint attached to ``busy`` responses.
    latency_window:
        Number of recent per-update wall latencies kept per session for the
        p50/p99 stats.
    state_dir:
        Directory for durable session state.  When set, evicted idle
        sessions *spill* their engine snapshot to a checksummed checkpoint
        file instead of dropping the window, the tenant's next request
        transparently restores it, and a background task re-checkpoints
        live sessions every ``checkpoint_interval_s`` so a crashed server
        restarts warm.  ``None`` (the default) keeps the pre-durability
        behaviour: eviction drops the window.
    checkpoint_interval_s:
        Cadence of the background checkpoint task (only meaningful with
        ``state_dir``).  ``None`` disables periodic checkpointing while
        keeping spill-on-evict and restore-on-demand.
    """

    spec: ClustererSpec = field(default_factory=lambda: DEFAULT_SPEC)
    max_sessions: int = 64
    session_ttl_s: float | None = 300.0
    max_queue_chunks: int = 64
    max_batch_chunks: int = 8
    max_batch_points: int = 65536
    sweep_interval_s: float = 0.5
    retry_after_s: float = 0.05
    latency_window: int = 512
    state_dir: str | None = None
    checkpoint_interval_s: float | None = 30.0

    def __post_init__(self) -> None:
        for name in ("max_sessions", "max_queue_chunks", "max_batch_chunks",
                     "max_batch_points", "latency_window"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")
            object.__setattr__(self, name, int(value))
        if self.session_ttl_s is not None and self.session_ttl_s <= 0:
            raise ValueError(f"session_ttl_s must be positive or None, got {self.session_ttl_s}")
        if self.sweep_interval_s <= 0:
            raise ValueError(f"sweep_interval_s must be positive, got {self.sweep_interval_s}")
        if self.retry_after_s < 0:
            raise ValueError(f"retry_after_s must be non-negative, got {self.retry_after_s}")
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise ValueError(
                f"checkpoint_interval_s must be positive or None, got {self.checkpoint_interval_s}"
            )
        if self.state_dir is not None:
            object.__setattr__(self, "state_dir", str(self.state_dir))

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "max_sessions": self.max_sessions,
            "session_ttl_s": self.session_ttl_s,
            "max_queue_chunks": self.max_queue_chunks,
            "max_batch_chunks": self.max_batch_chunks,
            "max_batch_points": self.max_batch_points,
            "sweep_interval_s": self.sweep_interval_s,
            "retry_after_s": self.retry_after_s,
            "latency_window": self.latency_window,
            "state_dir": self.state_dir,
            "checkpoint_interval_s": self.checkpoint_interval_s,
        }
