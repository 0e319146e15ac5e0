"""One benchmark workload in a fresh process: set up, measure, check.

``run.py`` starts this file once per measurement, never by hand::

    python3 perfbench/workloads.py --workload fit-blobs --inputs IN.npz \\
        --params '{...}' --seconds 20 --mode run --out OUT.json --t-spawn T

``--mode run`` measures and then checks the outputs; ``traced`` does the
same with every layer's entry points wrapped and also writes the spans.  The workload sees only the arrays in ``--inputs``, which
the parent generated from the seed.  ``setup_s`` runs from ``--t-spawn`` (the
parent's monotonic clock just before it started this process) to the first
timed op.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import stats
import tracing


def labels_sha256(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _timed_loop(seconds: float, op, tracer, op_name: str, limit: int | None = None) -> dict:
    """Run ``op(i)`` until ``seconds`` have passed; one wall time per op."""
    walls, results, failed = [], [], 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or (time.perf_counter() < deadline and (limit is None or i < limit)):
        span = tracer.op(op_name) if tracer is not None else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with span:
                result = op(i)
        except Exception as exc:  # counted, reported, and the loop goes on
            failed += 1
            print(f"perfbench: op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            walls.append(time.perf_counter() - t)
            results.append(result)
        i += 1
    return {"walls": walls, "results": results, "attempted": i, "failed": failed,
            "loop_s": time.perf_counter() - start}


# --------------------------------------------------------------------------- #
# Batch fits.
# --------------------------------------------------------------------------- #
class FitWorkload:
    """Refit one fixed point set for the whole run."""

    def __init__(self, inputs: dict, params: dict, model, reference) -> None:
        self.points = inputs["points"]
        self.params = params
        self.model = model
        self.reference = reference
        self.model.fit(self.points)  # the warm-up op

    def measure(self, seconds: float, tracer) -> dict:
        loop = _timed_loop(seconds, lambda i: self.model.fit(self.points), tracer, "op.fit")
        self.last = loop["results"][-1] if loop["results"] else None
        n = self.points.shape[0]
        return {
            "op_s": loop["walls"],
            "attempted": loop["attempted"],
            "failed": loop["failed"],
            "points": n * len(loop["walls"]),
            "loop_s": loop["loop_s"],
            "sim_s": sum(r.report.total_simulated_seconds for r in loop["results"]),
        }

    def check(self) -> list[dict]:
        if self.last is None:
            return [_check("a fit completed", False)]
        labels = self.last.labels.copy()
        if self.params.get("corrupt") == "label":
            labels[0] += 1
        return self.reference(self, labels)


def _blobs_reference(wl: FitWorkload, labels: np.ndarray) -> list[dict]:
    from repro.dbscan.rt_dbscan import RTDBSCAN

    grid = RTDBSCAN(eps=wl.model.eps, min_pts=wl.model.min_pts, backend="grid").fit(wl.points)
    checks = [_check("labels equal the grid backend's", np.array_equal(labels, grid.labels))]
    key = f"n={wl.points.shape[0]},seed={wl.params['seed']}"
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    digest = expected["fit-blobs"].get(key)
    got = labels_sha256(labels)
    if digest is None:
        checks.append(_check("labels_sha256", True, f"{got} (no stored digest for {key})"))
    else:
        checks.append(_check("labels_sha256 equals the stored digest", got == digest, got))
    return checks


def _tiled_reference(wl: FitWorkload, labels: np.ndarray) -> list[dict]:
    from repro.dbscan.rt_dbscan import RTDBSCAN

    mono = RTDBSCAN(eps=wl.model.eps, min_pts=wl.model.min_pts).fit(wl.points)
    return [_check("labels equal a monolithic RTDBSCAN fit", np.array_equal(labels, mono.labels))]


def fit_blobs(inputs: dict, params: dict) -> FitWorkload:
    from repro.dbscan.rt_dbscan import RTDBSCAN

    return FitWorkload(
        inputs, params,
        RTDBSCAN(eps=float(inputs["eps"]), min_pts=params["min_pts"]),
        _blobs_reference,
    )


def fit_ngsim_tiled(inputs: dict, params: dict) -> FitWorkload:
    from repro.partition.tiled import TiledRTDBSCAN

    return FitWorkload(
        inputs, params,
        TiledRTDBSCAN(eps=params["eps"], min_pts=params["min_pts"], tiles=params["tiles"],
                      workers=params["workers"], native_threads=params["native_threads"]),
        _tiled_reference,
    )


# --------------------------------------------------------------------------- #
# Sliding-window stream.
# --------------------------------------------------------------------------- #
class StreamWindow:
    """Steady-state window updates: each one evicts a chunk and ingests one.

    The process keeps one engine per stream of its part and updates them in
    turn, so its samples average over several streams' drift.
    """

    def __init__(self, inputs: dict, params: dict) -> None:
        from repro.streaming import StreamingRTDBSCAN

        self.params = params
        fill = params["window"] // params["chunk"]
        first = params.get("part", 0) * params["streams"]
        self.streams = []
        for i in range(first, first + params["streams"]):
            chunks, eps = inputs[f"chunks_{i}"], float(inputs[f"eps_{i}"])
            engine = StreamingRTDBSCAN(eps, params["min_pts"], window=params["window"])
            engine.update(chunks[:fill].reshape(-1, chunks.shape[2]))  # a warm-up op
            self.streams.append((engine, eps, chunks[fill:]))
        self.last = [None] * len(self.streams)

    def _update(self, i: int):
        m = len(self.streams)
        engine, _, chunks = self.streams[i % m]
        self.last[i % m] = engine.update(chunks[i // m])
        return self.last[i % m]

    def measure(self, seconds: float, tracer) -> dict:
        limit = len(self.streams) * min(len(s[2]) for s in self.streams)
        loop = _timed_loop(seconds, self._update, tracer, "op.update", limit=limit)
        return {
            "op_s": loop["walls"],
            "attempted": loop["attempted"],
            "failed": loop["failed"],
            "points": sum(u.num_new for u in loop["results"]),
            "loop_s": loop["loop_s"],
            "sim_s": sum(u.simulated_seconds for u in loop["results"]),
            "chunks_exhausted": loop["attempted"] >= limit,
        }

    def check(self) -> list[dict]:
        from repro.dbscan.rt_dbscan import rt_dbscan

        same = []
        for (engine, eps, _), last in zip(self.streams, self.last):
            if last is None:
                return [_check("every stream was updated", False)]
            labels = last.labels.copy()
            if self.params.get("corrupt") == "label":
                labels[0] += 1
            batch = rt_dbscan(engine.window_points, eps, self.params["min_pts"])
            same.append(np.array_equal(labels, batch.labels)
                        and np.array_equal(last.core_mask, batch.core_mask))
        return [_check("window labels equal batch rt_dbscan of the window, on every stream",
                       all(same))]


# --------------------------------------------------------------------------- #
# Multi-tenant service, open loop.
# --------------------------------------------------------------------------- #
class ServiceTenants:
    """An in-process ClusteringService fed on a fixed schedule.

    The load generator is one asyncio task on the service's own loop.  Each
    request is sent as its own task at its scheduled time, so a slow reply
    never delays the next send; latency runs from the scheduled time, which
    counts the wait a blocked loop imposes on every later request.
    """

    def __init__(self, inputs: dict, params: dict) -> None:
        from repro.api import ClustererSpec
        from repro.service import ClusteringService, Request, ServiceConfig

        self.params = params
        self.Request = Request
        tenants = params["tenants"]
        self.names = [f"tenant-{t:02d}" for t in range(tenants)]
        self.prefill = [inputs[f"prefill_{t}"] for t in range(tenants)]
        sizes = inputs["sched_sizes"]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        points = inputs["sched_points"]
        self.schedule = [
            (int(t), points[lo:hi])
            for t, lo, hi in zip(inputs["sched_tenant"], bounds[:-1], bounds[1:])
        ]
        self.next = 0
        #: per tenant, every chunk the service accepted, in order.
        self.accepted: list[list[np.ndarray]] = [[p] for p in self.prefill]
        self.ack_log: list[dict] = []
        self.query_log: list[dict] = []
        self.lag: list[float] = []
        config = ServiceConfig(
            spec=ClustererSpec(algo="streaming-rt-dbscan", eps=params["eps"],
                               min_pts=params["min_pts"],
                               params={"window": params["window"]}),
            session_ttl_s=None,
            checkpoint_interval_s=None,
            # Room for every update's wall time: the ring must not wrap.
            latency_window=1 << 20,
        )
        self.loop = asyncio.new_event_loop()
        self.service = ClusteringService(config)
        self.loop.run_until_complete(self._warm())

    async def _warm(self) -> None:
        """Start the service and fill every tenant's window (the warm-up op)."""
        await self.service.start()
        for name, chunk in zip(self.names, self.prefill):
            resp = await self.service.submit(self.Request.ingest(name, chunk))
            if not resp.ok:
                raise RuntimeError(f"prefill of {name} refused: {resp.error}")
        for name in self.names:
            await self.service.submit(self.Request.query_labels(name))
        self.engine_tenant = {id(engine): t for t, engine in enumerate(self._engines())}

    def _sessions(self):
        return [self.service.sessions.get(n, touch=False) for n in self.names]

    def _engines(self):
        return [s.engine for s in self._sessions()]

    async def _send_ingest(self, tenant: int, chunk: np.ndarray, due: float, phase: int,
                           skip: bool) -> None:
        if skip:  # a chunk lost on the way: recorded as sent, never delivered
            self.accepted[tenant].append(chunk)
            return
        resp = await self.service.submit(self.Request.ingest(self.names[tenant], chunk))
        now = time.perf_counter()
        index = None
        if resp.ok:
            index = len(self.accepted[tenant])
            self.accepted[tenant].append(chunk)
        self.ack_log.append({
            "phase": phase, "tenant": tenant, "index": index, "due": due, "ack": now,
            "status": resp.status, "points": int(chunk.shape[0]),
            "depth": resp.body.get("queue_depth", 0) if resp.ok else 0,
        })

    async def _send_query(self, tenant: int, due: float, phase: int) -> None:
        resp = await self.service.submit(self.Request.query_labels(self.names[tenant]))
        self.query_log.append({"phase": phase, "tenant": tenant, "due": due,
                               "done": time.perf_counter(), "status": resp.status})

    async def _probe(self, period: float = 0.01) -> None:
        while True:
            t = time.perf_counter()
            await asyncio.sleep(period)
            self.lag.append(time.perf_counter() - t - period)

    async def _phase(self, phase: int, rate: float, seconds: float) -> dict:
        """Send ``rate`` ingests per second for ``seconds``, then drain."""
        count = max(1, int(rate * seconds))
        plan = self.schedule[self.next : self.next + count]
        if len(plan) < count:
            raise RuntimeError("the generated schedule is too short for this run")
        self.next += count
        sims0 = sum(e.total_simulated_seconds for e in self._engines())
        updates0 = [s.metrics.latency.count for s in self._sessions()]
        sent_per_tenant = [0] * len(self.names)
        tasks, late = [], []
        t0 = time.perf_counter() + 0.005
        for i, (tenant, chunk) in enumerate(plan):
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            skip = self.params.get("corrupt") == "skip-chunk" and phase == 0 and i == count // 2
            tasks.append(asyncio.ensure_future(
                self._send_ingest(tenant, chunk, due, phase, skip)))
            sent_per_tenant[tenant] += 1
            if sent_per_tenant[tenant] % self.params["query_every"] == 0:
                tasks.append(asyncio.ensure_future(self._send_query(tenant, due, phase)))
        await asyncio.gather(*tasks)
        for session in self._sessions():
            await session.drain()
        end = time.perf_counter()
        acks = [a for a in self.ack_log if a["phase"] == phase]
        ok = [a for a in acks if a["status"] == "ok"]
        queries = [q for q in self.query_log if q["phase"] == phase]
        return {
            "rate": rate,
            "update_s": [w for s, c0 in zip(self._sessions(), updates0)
                         for w in s.metrics.latency.values()[c0:].tolist()],
            "ingest_s": [a["ack"] - a["due"] for a in acks],
            "query_s": [q["done"] - q["due"] for q in queries],
            "late_s": late,
            "attempted": len(acks) + len(queries),
            "failed": sum(a["status"] != "ok" for a in acks)
            + sum(q["status"] != "ok" for q in queries),
            "busy": sum(a["status"] == "busy" for a in acks),
            "backlog_max": max((a["depth"] for a in acks), default=0),
            "points": sum(a["points"] for a in ok),
            "offered_pps": sum(a["points"] for a in acks) / (count / rate),
            "drain_s": end - (t0 + (count - 1) / rate),
            "loop_s": end - t0,
            "start": t0,
            "end": end,
            "sim_s": sum(e.total_simulated_seconds for e in self._engines()) - sims0,
        }

    async def _measure(self, seconds: float, probe: bool) -> list[dict]:
        """The nominal rate for ``seconds``, then, if asked, each rung of the ladder."""
        params = self.params
        plan = [(params["rate"], seconds)]
        if params.get("with_ladder"):
            plan += [(params["rate"] * f, params["rung_s"]) for f in params["ladder"]]
        probe_task = asyncio.ensure_future(self._probe()) if probe else None
        try:
            phases = []
            for i, (rate, length) in enumerate(plan):
                phases.append(await self._phase(i, rate, length))
                if i == 0:  # the overloaded rungs batch at other sizes
                    self.nominal_rss_mb = _peak_rss_mb()
            return phases
        finally:
            if probe_task is not None:
                probe_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await probe_task

    def measure(self, seconds: float, tracer) -> dict:
        phases = self.loop.run_until_complete(self._measure(seconds, probe=tracer is not None))
        self.phases = phases
        limit = self.params["limit_s"]
        rungs = []
        for ph in phases:
            ingest_tail = stats.tail(ph["ingest_s"])
            late_tail = stats.tail(ph["late_s"])
            ok = (ph["failed"] == 0 and ingest_tail["value"] <= limit
                  and late_tail["value"] <= limit and ph["drain_s"] <= limit)
            rungs.append({"rate": ph["rate"], "offered_pps": ph["offered_pps"],
                          "ingest_s_tail": ingest_tail, "late_s_tail": late_tail,
                          "drain_s": ph["drain_s"], "failed": ph["failed"], "meets_limit": ok})
        nominal = phases[0]
        # Every end-to-end metric is taken at the nominal rate; the ladder's
        # rungs add their operations, backlog and max_pps verdicts.
        self.result = {
            "op_s": nominal["update_s"],
            "ingest_s": nominal["ingest_s"],
            "query_s": nominal["query_s"],
            "late_s": nominal["late_s"],
            "points": nominal["points"],
            "loop_s": nominal["loop_s"],
            "sim_s": nominal["sim_s"],
            "peak_rss_mb": self.nominal_rss_mb,
            "rungs": rungs,
            "backlog_max": max(ph["backlog_max"] for ph in phases),
            "ingests": sum(len(ph["ingest_s"]) for ph in phases),
        }
        for key in ("attempted", "failed", "busy"):
            self.result[key] = sum(ph[key] for ph in phases)
        return self.result

    def layers(self, spans: list[list]) -> dict:
        """Service-side per-layer metrics, from the spans and the request logs."""
        start, end = self.phases[0]["start"], self.phases[0]["end"]
        updates = [s for s in spans if s[0] == "streaming.update" and s[2] is not None
                   and "k" in s[6] and start <= s[1] / 1e9 <= end]
        # Chunk j of a tenant covers arrivals [offset_j, offset_j + size_j);
        # the update that folds it is the one whose arrival range holds offset_j.
        offsets = [np.cumsum([0] + [c.shape[0] for c in chunks])[:-1]
                   for chunks in self.accepted]
        acks = {(a["tenant"], a["index"]): a for a in self.ack_log if a["index"] is not None}
        waits, batch_chunks, last_fold = [], [], {}
        for s in updates:
            tenant = self.engine_tenant.get(s[6]["engine"])
            if tenant is None:
                continue
            lo, hi = s[6]["p0"], s[6]["p0"] + s[6]["k"]
            folded = np.flatnonzero((offsets[tenant] >= lo) & (offsets[tenant] < hi))
            batch_chunks.append(len(folded))
            for j in folded:
                ack = acks.get((tenant, int(j)))
                if ack is not None and ack["phase"] == 0:
                    waits.append(s[1] / 1e9 - ack["ack"])
            last_fold.setdefault(tenant, []).append(s[2] / 1e9)
        replies = []
        for q in self.query_log:
            if q["phase"] != 0:
                continue
            folds = [t for t in last_fold.get(q["tenant"], []) if t <= q["done"]]
            if folds:
                replies.append(q["done"] - max(folds))
        walls = [(s[2] - s[1]) / 1e9 for s in updates]
        m = self.result
        return {
            "service.queue_wait_s_p50": stats.median(waits),
            "service.queue_wait_s_tail": stats.tail(waits),
            "service.update_s_p50": stats.median(walls),
            "service.update_s_tail": stats.tail(walls),
            "service.batch_chunks": stats.mean(batch_chunks) or 0.0,
            "service.loop_lag_s_p50": stats.median(self.lag),
            "service.loop_lag_s_tail": stats.tail(self.lag),
            "service.reply_s_p50": stats.median(replies),
            "service.busy_frac": m["busy"] / m["ingests"] if m["ingests"] else 0.0,
            "service.backlog_max": float(m["backlog_max"]),
            "loadgen.late_s_tail": stats.tail(m["late_s"]),
        }

    def check(self) -> list[dict]:
        return self.loop.run_until_complete(self._check())

    def close(self) -> None:
        self.loop.run_until_complete(self.service.aclose())
        self.loop.close()

    async def _check(self) -> list[dict]:
        from repro.streaming import StreamingRTDBSCAN

        window = self.params["window"]
        bad = []
        for t, name in enumerate(self.names):
            resp = await self.service.submit(self.Request.query_labels(name))
            # A serial consume() of everything the tenant was acked for; the
            # feed is re-cut into window-sized pieces, which the labelling
            # does not depend on (the service coalesces chunks the same way).
            feed = np.vstack(self.accepted[t])
            with StreamingRTDBSCAN(self.params["eps"], self.params["min_pts"],
                                   window=window) as engine:
                engine.consume(feed[i : i + window] for i in range(0, feed.shape[0], window))
                ref = engine.result()
            same = (
                resp.ok
                and resp.body["labels"] == ref.labels.tolist()
                and resp.body["core_mask"] == ref.core_mask.tolist()
                and resp.body["window_arrivals"] == ref.extra["window_arrivals"].tolist()
            )
            if not same:
                bad.append(name)
        return [_check("every tenant's labels equal a serial consume() of its feed",
                       not bad, f"mismatch: {', '.join(bad)}" if bad else "")]


WORKLOADS = {
    "fit-blobs": fit_blobs,
    "fit-ngsim-tiled": fit_ngsim_tiled,
    "stream-window": StreamWindow,
    "service-tenants": ServiceTenants,
}


# --------------------------------------------------------------------------- #
def kernel_status() -> dict:
    from repro.native import dispatch

    status = dispatch.status()
    return {
        "tier": "native" if status["active"] else "numpy",
        "variant": status["variant"],
        "resolved_threads": status["resolved_threads"],
        "fallback_reason": status["fallback_reason"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--params", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("run", "traced"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--trace-prefix", default=None)
    parser.add_argument("--corrupt", default=None, choices=("label", "skip-chunk"))
    args = parser.parse_args(argv)

    params = dict(json.loads(args.params), corrupt=args.corrupt)
    with np.load(args.inputs) as data:
        inputs = {key: data[key] for key in data.files}
    workload = WORKLOADS[args.workload](inputs, params)
    setup_s = time.monotonic() - args.t_spawn
    record = {"setup_s": setup_s, "kernel": kernel_status()}
    tracer = tracing.Tracer() if args.mode == "traced" else None
    patches = tracing.install(tracer) if tracer is not None else None
    try:
        result = workload.measure(args.seconds, tracer)
    finally:
        if patches is not None:
            patches.restore()
    record["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans)
        if hasattr(workload, "layers"):
            record["layers"].update(workload.layers(tracer.spans))
        rows, wall = tracing.self_time_table(tracer.spans)
        record["self_time"] = tracing.format_self_time(rows, wall)
        prefix = Path(args.trace_prefix)
        meta = {"workload": args.workload, "seed": params["seed"]}
        prefix.with_suffix(".trace.json").write_text(
            json.dumps(tracing.chrome_trace(tracer.spans, metadata=meta)))
        prefix.with_suffix(".selftime.txt").write_text(record["self_time"] + "\n")
    record["checks"] = workload.check()
    record.update(result)
    if hasattr(workload, "close"):
        workload.close()
    Path(args.out).write_text(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
