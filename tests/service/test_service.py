"""ClusteringService: multi-tenant parity, backpressure, eviction, ops."""

from __future__ import annotations

import asyncio

import numpy as np

from repro.data.stream import interleave_feeds, make_stream, multi_tenant_feeds
from repro.service import ClusteringService, Request
from repro.streaming import StreamingRTDBSCAN


def chunks_for(n: int, size: int = 40, seed: int = 3) -> list[np.ndarray]:
    return list(make_stream("drift-blobs", n, size, seed=seed))


async def ingest_until_accepted(service: ClusteringService, tenant: str,
                                chunk: np.ndarray) -> None:
    """Submit one chunk, retrying through backpressure until it is acked."""
    while True:
        resp = await service.submit(Request.ingest(tenant, chunk))
        if resp.ok:
            return
        assert resp.busy, resp.error
        # Yield so the tenant's worker can drain its queue.
        await asyncio.sleep(0)


class TestMultiTenantParity:
    def test_eight_tenants_bit_identical_to_serial_consume(self, run, make_config):
        """Acceptance: interleaved concurrent ingest across >= 8 tenants with
        micro-batching on yields per-tenant labels bit-identical to a serial
        ``consume()`` of the same feed."""
        feeds = multi_tenant_feeds(8, num_chunks=6, chunk_size=40,
                                   seed=5, skew=1.2)
        config = make_config(max_batch_chunks=4, max_queue_chunks=4)

        async def scenario():
            async with ClusteringService(config) as service:
                for tenant, chunk in interleave_feeds(feeds, seed=1):
                    await ingest_until_accepted(service, tenant, chunk)
                results = {}
                for tenant in feeds:
                    resp = await service.submit(Request.query_labels(tenant))
                    assert resp.ok, resp.error
                    results[tenant] = resp.body
                stats = (await service.submit(Request.stats())).body
                return results, stats

        results, stats = run(scenario())
        assert len(results) == 8
        for tenant, chunks in feeds.items():
            with StreamingRTDBSCAN(eps=0.4, min_pts=5, window=300) as ref:
                ref.consume(chunks)
                want = ref.result()
            got = results[tenant]
            assert got["labels"] == want.labels.tolist(), tenant
            assert got["core_mask"] == want.core_mask.tolist(), tenant
            assert (got["window_arrivals"]
                    == want.extra["window_arrivals"].tolist()), tenant
        # Micro-batching actually engaged: fewer update() calls than chunks.
        total_chunks = sum(len(chunks) for chunks in feeds.values())
        assert stats["service"]["chunks_ingested"] == total_chunks
        assert stats["service"]["batches"] <= total_chunks

    def test_single_tenant_parity_under_forced_batching(self, run, make_config):
        """All chunks queued before the worker runs -> maximal coalescing."""
        chunks = chunks_for(6, seed=9)
        config = make_config(max_batch_chunks=8, max_queue_chunks=8)

        async def scenario():
            async with ClusteringService(config) as service:
                for chunk in chunks:
                    resp = await service.submit(Request.ingest("t", chunk))
                    assert resp.ok
                resp = await service.submit(Request.query_labels("t"))
                session = service.sessions.get("t", touch=False)
                return resp.body, session.engine.num_updates

        body, num_updates = run(scenario())
        with StreamingRTDBSCAN(eps=0.4, min_pts=5, window=300) as ref:
            ref.consume(chunks)
            want = ref.result()
        assert body["labels"] == want.labels.tolist()
        assert num_updates < len(chunks)  # coalescing really happened


class TestBackpressure:
    def test_full_queue_answers_busy_with_retry_hint(self, run, make_config):
        config = make_config(max_queue_chunks=2, retry_after_s=0.125)
        chunks = chunks_for(4)

        async def scenario():
            service = ClusteringService(config)
            # No worker draining between submits on the microtask fast-path:
            # the first ingest creates the session task but submits don't
            # yield, so the queue fills.
            first = await service.submit(Request.ingest("t", chunks[0]))
            assert first.ok and first.body["session_created"]
            second = await service.submit(Request.ingest("t", chunks[1]))
            third = await service.submit(Request.ingest("t", chunks[2]))
            await service.aclose()
            return second, third

        second, third = run(scenario())
        assert second.ok
        assert third.busy
        assert third.retry_after_s == 0.125
        assert "queue full" in third.error

    def test_capacity_backpressure_when_pool_is_busy(self, run, make_config):
        config = make_config(max_sessions=1, max_queue_chunks=8)
        chunks = chunks_for(2)

        async def scenario():
            service = ClusteringService(config)
            await service.submit(Request.ingest("a", chunks[0]))
            # "a" has queued work -> not idle -> no LRU victim for "b".
            resp = await service.submit(Request.ingest("b", chunks[1]))
            await service.aclose()
            return resp

        resp = run(scenario())
        assert resp.busy
        assert "full" in resp.error


class TestEviction:
    def test_ttl_sweep_evicts_and_reaps_worker(self, run, make_config, fake_clock):
        config = make_config(session_ttl_s=10.0, sweep_interval_s=1e9)
        chunk = chunks_for(1)[0]

        async def scenario():
            service = ClusteringService(config, clock=fake_clock)
            await service.start()
            await service.submit(Request.ingest("t", chunk))
            session = service.sessions.get("t", touch=False)
            await session.drain()
            fake_clock.advance(11.0)
            evicted = await service.sweep()
            await service.aclose()
            return evicted, session, dict(service.metrics.sessions_evicted)

        evicted, session, reasons = run(scenario())
        assert evicted == ["t"]
        assert session.closed
        assert session.engine.num_releases == 1  # release() exactly once
        assert reasons == {"ttl": 1}

    def test_lru_capacity_eviction_reaps_stale_worker(self, run, make_config,
                                                      fake_clock):
        config = make_config(max_sessions=2)
        chunks = chunks_for(3)

        async def scenario():
            service = ClusteringService(config, clock=fake_clock)
            await service.submit(Request.ingest("a", chunks[0]))
            await service.submit(Request.ingest("b", chunks[1]))
            for tenant in ("a", "b"):
                await service.sessions.get(tenant, touch=False).drain()
            first = service.sessions.get("a", touch=False)
            fake_clock.advance(1.0)
            service.sessions.get("b")  # touch: "a" becomes the LRU victim
            await service.submit(Request.ingest("c", chunks[2]))
            workers = set(service._workers)
            await service.aclose()
            return first, workers

        first, workers = run(scenario())
        assert first.closed
        assert first.engine.num_releases == 1
        assert workers == {"b", "c"}  # evicted tenant's worker was reaped

    def test_explicit_evict_op(self, run, make_config):
        chunk = chunks_for(1)[0]

        async def scenario():
            async with ClusteringService(make_config()) as service:
                await service.submit(Request.ingest("t", chunk))
                session = service.sessions.get("t", touch=False)
                first = await service.submit(Request.evict("t"))
                second = await service.submit(Request.evict("t"))
                return first, second, session

        first, second, session = run(scenario())
        assert first.ok and first.body == {"evicted": True, "checkpoint_deleted": False}
        assert second.ok and second.body == {"evicted": False, "checkpoint_deleted": False}
        assert session.engine.num_releases == 1


class TestFailureContainment:
    def test_mixed_dim_ingest_is_an_error_not_a_hang(self, run, make_config):
        """A 2-d chunk followed by a 3-d chunk for the same tenant (both
        protocol-valid) is rejected at enqueue; the session keeps serving
        and shutdown still drains cleanly."""
        config = make_config(max_batch_chunks=4, max_queue_chunks=8)

        async def scenario():
            async with ClusteringService(config) as service:
                ok = await service.submit(Request.ingest("t", chunks_for(1)[0]))
                bad = await service.submit(
                    {"op": "ingest", "tenant": "t", "points": [[0.0, 0.0, 0.0]] * 8}
                )
                labels = await service.submit(Request.query_labels("t"))
                again = await service.submit(Request.ingest("t", chunks_for(1, seed=5)[0]))
                return ok, bad, labels, again

        ok, bad, labels, again = run(scenario())
        assert ok.ok
        assert not bad.ok and "2-d" in bad.error
        assert labels.ok and len(labels.body["labels"]) == 40
        assert again.ok  # the session survived the bad chunk

    def test_failed_update_degrades_to_errors_and_evict_resets(self, run, make_config):
        """When the engine raises mid-update the tenant gets error responses
        (not hangs), stats surface the failure, and evicting the tenant
        builds a fresh working session."""
        chunks = chunks_for(3)

        async def scenario():
            async with ClusteringService(make_config()) as service:
                await service.submit(Request.ingest("t", chunks[0]))
                session = service.sessions.get("t", touch=False)
                await session.drain()

                def boom(points):
                    raise RuntimeError("engine exploded")

                session.engine.update = boom
                await service.submit(Request.ingest("t", chunks[1]))
                labels = await service.submit(Request.query_labels("t"))
                rejected = await service.submit(Request.ingest("t", chunks[2]))
                stats = await service.submit(Request.stats())
                evicted = await service.submit(Request.evict("t"))
                fresh = await service.submit(Request.ingest("t", chunks[2]))
                return labels, rejected, stats, evicted, fresh, session

        labels, rejected, stats, evicted, fresh, session = run(scenario())
        assert not labels.ok and "session failed" in labels.error
        assert not rejected.ok and "evict" in rejected.error
        assert stats.body["service"]["update_failures"] == 1
        assert stats.body["sessions"]["tenants"]["t"]["error"] is not None
        assert evicted.ok and evicted.body["evicted"] is True
        assert session.engine.num_releases == 1
        assert fresh.ok and fresh.body["session_created"]

    def test_sweeper_survives_a_failing_sweep_pass(self, run, make_config, fake_clock):
        config = make_config(session_ttl_s=10.0, sweep_interval_s=0.01)

        async def scenario():
            service = ClusteringService(config, clock=fake_clock)
            await service.start()
            calls = []
            original = service.sweep

            async def flaky_sweep():
                calls.append(True)
                if len(calls) == 1:
                    raise RuntimeError("sweep blew up")
                return await original()

            service.sweep = flaky_sweep
            for _ in range(500):  # bounded wait: ~5 s worst case
                if len(calls) >= 3:
                    break
                await asyncio.sleep(0.01)
            alive = not service._sweeper.done()
            await service.aclose()
            return calls, alive

        calls, alive = run(scenario())
        assert len(calls) >= 3  # kept firing after the failure
        assert alive


class TestOps:
    def test_unknown_tenant_query_is_an_error(self, run, make_config):
        async def scenario():
            async with ClusteringService(make_config()) as service:
                return (await service.submit(Request.query_labels("ghost")),
                        await service.submit(Request.snapshot("ghost")))

        labels, snap = run(scenario())
        assert not labels.ok and "unknown tenant" in labels.error
        assert not snap.ok and "unknown tenant" in snap.error

    def test_snapshot_reflects_drained_window(self, run, make_config):
        chunks = chunks_for(3)

        async def scenario():
            async with ClusteringService(make_config()) as service:
                for chunk in chunks:
                    await service.submit(Request.ingest("t", chunk))
                resp = await service.submit(Request.snapshot("t"))
                return resp

        resp = run(scenario())
        assert resp.ok
        body = resp.body
        assert body["window_size"] == sum(c.shape[0] for c in chunks)
        assert len(body["labels"]) == body["window_size"]
        assert body["released"] is False
        assert "summary" in body

    def test_stats_surface(self, run, make_config):
        chunk = chunks_for(1)[0]

        async def scenario():
            async with ClusteringService(make_config()) as service:
                await service.submit(Request.ingest("t", chunk))
                await service.sessions.get("t", touch=False).drain()
                return await service.submit(Request.stats())

        resp = run(scenario())
        assert resp.ok
        body = resp.body
        assert body["service"]["requests"]["ingest"] == 1
        assert body["service"]["sessions_created"] == 1
        assert body["sessions"]["tenants"]["t"]["points_ingested"] == 40
        assert body["config"]["max_sessions"] == 64

    def test_shutdown_releases_all_sessions(self, run, make_config):
        chunks = chunks_for(2)

        async def scenario():
            service = ClusteringService(make_config())
            await service.submit(Request.ingest("a", chunks[0]))
            await service.submit(Request.ingest("b", chunks[1]))
            sessions = [service.sessions.get(t, touch=False) for t in ("a", "b")]
            resp = await service.submit(Request.shutdown())
            after = await service.submit(Request.stats())
            return resp, after, sessions, service.shutdown_event.is_set()

        resp, after, sessions, event_set = run(scenario())
        assert resp.ok and resp.body["sessions_evicted"] == 2
        assert all(s.engine.num_releases == 1 for s in sessions)
        assert not after.ok and "shut down" in after.error
        assert event_set

    def test_dict_requests_and_protocol_errors(self, run, make_config):
        async def scenario():
            async with ClusteringService(make_config()) as service:
                ok = await service.submit(
                    {"op": "ingest", "tenant": "t", "points": [[0.0, 0.0]] * 8}
                )
                bad = await service.submit({"op": "frobnicate"})
                return ok, bad

        ok, bad = run(scenario())
        assert ok.ok and ok.body["accepted_points"] == 8
        assert not bad.ok and "unknown op" in bad.error
