"""Session pool: micro-batching, backpressure, LRU/TTL eviction, teardown."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import ClustererSpec
from repro.data.stream import make_stream
from repro.service import ClusteringService, Request
from repro.service.session import CapacityError, SessionError, SessionManager
from repro.streaming import StreamingRTDBSCAN


def chunks_for(n: int, size: int = 40, seed: int = 3) -> list[np.ndarray]:
    return list(make_stream("drift-blobs", n, size, seed=seed))


class TestSessionWorker:
    def test_microbatch_coalesces_queued_chunks(self, run, make_config):
        """Chunks queued ahead of the worker land as one update() each batch."""
        config = make_config(max_batch_chunks=4)
        manager = SessionManager(config)

        async def scenario():
            session, created = manager.get_or_create("a")
            assert created
            for chunk in chunks_for(5):
                assert await session.enqueue(chunk)
            worker = asyncio.create_task(session.run())
            await session.drain()
            await session.stop()
            await worker
            return session

        session = run(scenario())
        # 5 chunks under a 4-chunk budget: one batch of 4, one of 1.
        assert session.engine.num_updates == 2
        assert session.metrics.batches == 2
        assert session.metrics.chunks_ingested == 5
        assert session.metrics.max_batch_chunks == 4
        assert session.metrics.points_ingested == 200
        assert session.metrics.latency.count == 2

    def test_batch_points_budget_stops_coalescing(self, run, make_config):
        config = make_config(max_batch_chunks=8, max_batch_points=90)
        manager = SessionManager(config)

        async def scenario():
            session, _ = manager.get_or_create("a")
            for chunk in chunks_for(4, size=40):
                assert await session.enqueue(chunk)
            worker = asyncio.create_task(session.run())
            await session.drain()
            await session.stop()
            await worker
            return session

        session = run(scenario())
        # 40 points/chunk vs a 90-point budget: batches stop at 2 chunks
        # (a third would cross the cap; the budget is never exceeded).
        assert session.engine.num_updates == 2
        assert session.metrics.max_batch_points == 80

    def test_window_caps_batch_coalescing(self, run, make_config):
        """A batch never exceeds the engine's sliding window: an oversized
        update would truncate and skip arrival numbers the serial feed
        assigns, breaking bit-identity."""
        config = make_config(max_batch_chunks=64, max_batch_points=65536)
        manager = SessionManager(config)

        async def scenario():
            session, _ = manager.get_or_create("a")
            for chunk in chunks_for(4, size=137):
                assert await session.enqueue(chunk)
            worker = asyncio.create_task(session.run())
            await session.drain()
            await session.stop()
            await worker
            return session

        session = run(scenario())
        # window=300, 137-point chunks: two chunks fit (274), three don't.
        assert session.metrics.max_batch_points <= 300
        assert session.engine.num_updates == 2
        assert session.engine.summary()["points_ingested"] == 548

    def test_enqueue_backpressure_at_queue_budget(self, run, make_config):
        config = make_config(max_queue_chunks=2)
        manager = SessionManager(config)

        async def scenario():
            session, _ = manager.get_or_create("a")
            chunks = chunks_for(3)
            assert await session.enqueue(chunks[0])
            assert await session.enqueue(chunks[1])
            assert not await session.enqueue(chunks[2])  # full -> rejected
            return session

        session = run(scenario())
        assert session.metrics.chunks_accepted == 2
        assert session.metrics.chunks_rejected == 1
        assert session.queue_depth == 2

    def test_enqueue_rejects_mixed_dimensionality(self, run, make_config):
        """The first chunk pins the session's dimensionality; a mismatched
        chunk raises instead of poisoning a future coalesced vstack."""
        manager = SessionManager(make_config())

        async def scenario():
            session, _ = manager.get_or_create("a")
            assert await session.enqueue(np.zeros((4, 2)))
            with pytest.raises(SessionError, match="2-d"):
                await session.enqueue(np.ones((4, 3)))
            return session

        session = run(scenario())
        assert session.queue_depth == 1  # the bad chunk was never queued

    def test_concurrent_enqueues_respect_queue_bound(self, run, make_config):
        """Many enqueues racing for the condition lock cannot overshoot the
        configured queue cap (the bound is checked under the lock)."""
        manager = SessionManager(make_config(max_queue_chunks=2))

        async def scenario():
            session, _ = manager.get_or_create("a")
            results = await asyncio.gather(
                *(session.enqueue(chunk) for chunk in chunks_for(6))
            )
            return session, results

        session, results = run(scenario())
        assert session.queue_depth == 2
        assert sum(results) == 2
        assert session.metrics.chunks_rejected == 4

    def test_failed_update_fails_session_and_unblocks_drain(self, run, make_config):
        """An update() that raises must not kill the worker: the session is
        marked failed, pending work is dropped, and drain() returns instead
        of hanging every read/evict on the tenant."""
        manager = SessionManager(make_config())

        async def scenario():
            session, _ = manager.get_or_create("a")

            def boom(points):
                raise RuntimeError("engine exploded")

            session.engine.update = boom
            worker = asyncio.create_task(session.run())
            assert await session.enqueue(chunks_for(1)[0])
            await session.drain()  # returns despite the failed batch
            assert session.error is not None
            with pytest.raises(SessionError, match="failed"):
                await session.enqueue(chunks_for(1)[0])
            await session.stop()
            await worker  # worker exits cleanly, not by exception
            return session

        session = run(scenario())
        assert "RuntimeError: engine exploded" in session.error
        assert session.queue_depth == 0
        assert session.metrics.update_failures == 1
        assert session.stats()["error"] == session.error

    def test_labels_match_serial_consume(self, run, make_config):
        config = make_config(max_batch_chunks=3)
        manager = SessionManager(config)
        chunks = chunks_for(7, seed=11)

        async def scenario():
            session, _ = manager.get_or_create("a", first_chunk=chunks[0])
            worker = asyncio.create_task(session.run())
            for chunk in chunks:
                while not await session.enqueue(chunk):
                    await asyncio.sleep(0)
            await session.drain()
            await session.stop()
            await worker
            return session.engine.result()

        got = run(scenario())
        with StreamingRTDBSCAN(eps=0.4, min_pts=5, window=300) as ref:
            ref.consume(chunks)
            want = ref.result()
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.core_mask, want.core_mask)


class TestSessionManager:
    def test_rejects_batch_only_spec(self, run, make_config):
        with pytest.raises(ValueError, match="partial_fit"):
            SessionManager(make_config(
                spec=ClustererSpec(algo="rt-dbscan", eps=0.3, min_pts=5)
            ))

    def test_first_chunk_sizes_the_slot_buffer(self, run, make_config):
        manager = SessionManager(make_config())
        chunk = chunks_for(1, size=400)[0]
        session, _ = manager.get_or_create("a", first_chunk=chunk)
        # The window (300) plus one in-flight chunk of the first chunk's size.
        assert session.engine.scene.capacity == 700

    def test_spec_engine_params_reach_the_engine(self, run, make_config):
        spec = ClustererSpec(
            algo="streaming-rt-dbscan@kdtree", eps=0.4, min_pts=5,
            native=False, native_threads=1,
            params={"window": 300, "initial_capacity": 512, "chunk_size": 4096},
        )

        async def scenario():
            async with ClusteringService(make_config(spec=spec)) as service:
                ack = await service.submit(Request.ingest("a", chunks_for(1)[0]))
                labels = await service.submit(Request.query_labels("a"))
                return ack, labels, service.sessions.get("a")

        ack, labels, session = run(scenario())
        assert ack.ok, ack.error
        assert labels.ok and labels.body["window_size"] == 40
        engine = session.engine
        assert engine.backend == "kdtree"
        assert engine.native is False
        assert engine.native_threads == 1
        assert engine.window == 300
        assert engine.scene.capacity == 512
        assert engine.scene.chunk_size == 4096

    def test_lru_capacity_eviction_prefers_idle_lru(self, run, make_config, fake_clock):
        manager = SessionManager(make_config(max_sessions=2), clock=fake_clock)
        first, _ = manager.get_or_create("a")
        manager.get_or_create("b")
        fake_clock.advance(1.0)
        manager.get("b")  # touch b: a becomes the LRU victim
        manager.get_or_create("c")
        assert manager.tenants() == ["b", "c"]
        assert first.closed
        assert first.engine.num_releases == 1
        assert manager.metrics.sessions_evicted == {"lru": 1}

    def test_capacity_error_when_every_session_busy(self, run, make_config):
        manager = SessionManager(make_config(max_sessions=1))

        async def scenario():
            session, _ = manager.get_or_create("a")
            await session.enqueue(chunks_for(1)[0])  # pending work -> not idle
            with pytest.raises(CapacityError):
                manager.get_or_create("b")

        run(scenario())

    def test_ttl_sweep_evicts_only_stale_idle_sessions(self, run, make_config, fake_clock):
        manager = SessionManager(make_config(session_ttl_s=10.0), clock=fake_clock)
        stale, _ = manager.get_or_create("old")
        fake_clock.advance(11.0)
        fresh, _ = manager.get_or_create("new")
        evicted = manager.sweep()
        assert [s.tenant for s in evicted] == ["old"]
        assert stale.engine.num_releases == 1
        assert not fresh.closed
        assert manager.metrics.sessions_evicted == {"ttl": 1}

    def test_ttl_none_disables_sweep(self, run, make_config, fake_clock):
        manager = SessionManager(make_config(session_ttl_s=None), clock=fake_clock)
        manager.get_or_create("a")
        fake_clock.advance(1e6)
        assert manager.sweep() == []

    def test_close_all_releases_each_engine_exactly_once(self, run, make_config):
        manager = SessionManager(make_config())
        sessions = [manager.get_or_create(f"t{i}")[0] for i in range(3)]
        manager.close_all()
        assert len(manager) == 0
        assert [s.engine.num_releases for s in sessions] == [1, 1, 1]
        # A second teardown pass must not double-release.
        for session in sessions:
            session.close()
        assert [s.engine.num_releases for s in sessions] == [1, 1, 1]

    def test_evict_unknown_tenant_returns_none(self, run, make_config):
        manager = SessionManager(make_config())
        assert manager.evict("ghost") is None

    def test_stats_surface(self, run, make_config, fake_clock):
        manager = SessionManager(make_config(), clock=fake_clock)
        manager.get_or_create("a")
        stats = manager.stats()
        assert stats["num_sessions"] == 1
        tenant_stats = stats["tenants"]["a"]
        assert tenant_stats["queue_depth"] == 0
        assert "update_latency" in tenant_stats
        assert {"p50_s", "p99_s"} <= set(tenant_stats["update_latency"])
        assert "engine" in tenant_stats
