#!/usr/bin/env python3
"""The repository benchmark: four RT-DBSCAN workloads, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-blobs --seed 0 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``fit-blobs``        -- ``RTDBSCAN`` refits 50k ``blobs`` points on the rt backend;
* ``fit-ngsim-tiled``  -- ``TiledRTDBSCAN`` refits 64k NGSIM points (no clusters form);
* ``stream-window``    -- steady-state ``StreamingRTDBSCAN`` updates of a 20k window;
* ``service-tenants``  -- an in-process ``ClusteringService`` fed open-loop by 8 tenants.

The parent process generates the inputs from ``--seed`` (``repro.data``),
warms the native kernel build, and runs the workload in fresh child
processes (``workloads.py``), so the code under test sees only the arrays.

``--trace 0`` measures with tracing off, split over three fresh processes
(two for the service) whose samples it pools, and reports the median of
their set-up times; the last line printed is the JSON result with every
``end_to_end`` metric of ``BENCHMARK.json``.  ``--trace 1`` runs the workload untraced for
half the time (the baseline of ``trace.overhead_frac``) and then traced, each
in its own process; the traced run writes a Chrome trace and a self-time
table to ``.bench_build/perfbench/`` and the JSON result carries every
``per_layer`` metric.  Every run checks the workload's outputs after
its timed loop; a failed check is printed and makes the run fail.

Exit codes: 0 ok, 1 a check or a child failed, 2 no ``src/repro`` to
benchmark, 3 the kernel tier differs from ``perfbench/expected.json`` (the
run is invalid and reports nothing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"

#: Workload parameters; ``TOY`` overrides them for the benchmark's own tests.
PARAMS = {
    "fit-blobs": {"n": 50_000, "min_pts": 10, "eps_quantile": 0.30},
    "fit-ngsim-tiled": {"n": 64_000, "eps": 0.0005, "min_pts": 100, "tiles": 4,
                        "workers": 2, "native_threads": 1},
    "stream-window": {"window": 20_000, "chunk": 500, "min_pts": 5, "eps_quantile": 0.30,
                      "steady_chunks": 200, "streams": 3},
    "service-tenants": {"tenants": 8, "window": 4000, "eps": 0.35, "min_pts": 5,
                        "chunk": 250, "skew": 1.0, "chunks_per_tenant": 200,
                        "rate": 18.0, "ladder": [1.5, 2.0, 2.5], "rung_s": 2.0,
                        "limit_s": 2.0, "query_every": 10},
}
TOY = {
    "fit-blobs": {"n": 3000},
    "fit-ngsim-tiled": {"n": 4000},
    "stream-window": {"window": 1000, "chunk": 100, "steady_chunks": 40},
    "service-tenants": {"tenants": 3, "window": 300, "chunk": 40, "chunks_per_tenant": 100,
                        "rate": 40.0, "rung_s": 0.5},
}

#: An untraced run splits its measurement over this many fresh processes and
#: pools their samples: on a shared two-core host a single process can run
#: 10-20% fast or slow for its whole life, so one process per run makes the
#: run-to-run spread that much wider.  Set-up is timed in every process and
#: the run reports the median.  The service's last process also climbs the
#: ladder of rates for max_pps after its nominal phase.
PARTS = {"fit-blobs": 3, "fit-ngsim-tiled": 3, "stream-window": 3, "service-tenants": 2}

#: Each workload's primary op, under the name its metrics are printed with.
OP_NAME = {"fit-blobs": "fit_s", "fit-ngsim-tiled": "fit_s",
           "stream-window": "update_s", "service-tenants": "update_s"}

#: Every per-layer metric a traced run prints, with its unit.
LAYER_METRICS = (
    ("neighbors.build_s", "s"), ("bvh.build_s", "s"),
    ("neighbors.counts_s", "s"), ("neighbors.csr_s", "s"),
    ("rtcore.node_visits", "count"), ("rtcore.candidates", "count"),
    ("rtcore.confirmed", "count"), ("rtcore.confirm_ratio", "ratio"),
    ("native.bvh_sphere_s", "s"), ("native.uf_union_edges_s", "s"),
    ("native.calls", "count"), ("native.fallbacks", "count"),
    ("dbscan.formation_s", "s"), ("dbscan.union_s", "s"), ("dbscan.union_edges", "count"),
    ("dbscan.unions", "count"), ("dbscan.union_ratio", "ratio"), ("dbscan.glue_s", "s"),
    ("partition.split_s", "s"), ("partition.tile_s", "s"),
    ("partition.tile_imbalance", "ratio"), ("partition.merge_s", "s"),
    ("streaming.evict_s", "s"), ("streaming.scene_s", "s"), ("streaming.core_s", "s"),
    ("streaming.cluster_s", "s"), ("streaming.label_s", "s"),
    ("streaming.recluster_frac", "ratio"), ("streaming.rays_per_point", "ratio"),
    ("rtcore.commit_s", "s"), ("rtcore.refit_frac", "ratio"), ("rtcore.query_s", "s"),
    ("service.queue_wait_s_p50", "s"), ("service.queue_wait_s_tail", "s"),
    ("service.update_s_p50", "s"), ("service.update_s_tail", "s"),
    ("service.batch_chunks", "count"),
    ("service.loop_lag_s_p50", "s"), ("service.loop_lag_s_tail", "s"),
    ("service.reply_s_p50", "s"), ("service.busy_frac", "ratio"),
    ("service.backlog_max", "count"), ("loadgen.late_s_tail", "s"),
    ("trace.overhead_frac", "ratio"),
    *((f"{layer}.self_share", "ratio") for layer in
      ("neighbors", "bvh", "rtcore", "native", "dbscan", "partition", "streaming", "op")),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: toy sizes and deliberately broken outputs.
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", choices=("label", "skip-chunk"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Inputs (the data layer, on the benchmark's side).
# --------------------------------------------------------------------------- #
def make_inputs(workload: str, p: dict, seed: int) -> dict:
    import numpy as np
    from repro.bench.experiments import calibrate_eps
    from repro.data.registry import generate
    from repro.data.stream import interleave_feeds, make_stream, multi_tenant_feeds

    if workload == "fit-blobs":
        points = generate("blobs", p["n"], seed=seed)
        return {"points": points, "eps": calibrate_eps(points, p["min_pts"], p["eps_quantile"])}
    if workload == "fit-ngsim-tiled":
        return {"points": generate("ngsim", p["n"], seed=seed)}
    if workload == "stream-window":
        # The cost of an update follows the drift of its stream, so a run
        # pools independent streams: each measuring process round-robins
        # over its own ``streams`` engines.
        fill_chunks = p["window"] // p["chunk"]
        count = PARTS[workload] * p["streams"]
        out = {}
        for i in range(count):
            chunks = np.stack(list(make_stream(
                "drift-blobs", fill_chunks + p["steady_chunks"], p["chunk"],
                seed=count * seed + i)))
            first_window = chunks[:fill_chunks].reshape(-1, chunks.shape[2])
            out[f"chunks_{i}"] = chunks
            out[f"eps_{i}"] = calibrate_eps(first_window, p["min_pts"], p["eps_quantile"])
        return out
    feeds = multi_tenant_feeds(p["tenants"], p["chunks_per_tenant"], p["chunk"],
                               seed=seed, skew=p["skew"])
    out, rest, index = {}, {}, {}
    for t, (name, chunks) in enumerate(feeds.items()):
        # The window fill is the longest prefix of the feed that fits the
        # window, sent as one chunk: no point is truncated away, so the
        # service's arrival numbering stays that of the chunked feed.
        sizes = np.cumsum([c.shape[0] for c in chunks])
        k = max(1, int(np.searchsorted(sizes, p["window"], side="right")))
        out[f"prefill_{t}"] = np.vstack(chunks[:k])
        rest[name], index[name] = chunks[k:], t
    order = list(interleave_feeds(rest, seed=seed))
    out["sched_tenant"] = np.array([index[name] for name, _ in order])
    out["sched_sizes"] = np.array([chunk.shape[0] for _, chunk in order])
    out["sched_points"] = np.vstack([chunk for _, chunk in order])
    return out


# --------------------------------------------------------------------------- #
# Child processes.
# --------------------------------------------------------------------------- #
def prepare_environment(nproc: int) -> None:
    """Pin the kernel tier's knobs: native tier, one OpenMP thread per core."""
    for knob in ("REPRO_NATIVE", "REPRO_NATIVE_THREADS", "REPRO_NATIVE_NO_OPENMP"):
        os.environ.pop(knob, None)
    os.environ["OMP_NUM_THREADS"] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def spawn(args, mode: str, inputs: Path, params: dict, seconds: float) -> dict:
    """Run one workload child to completion; returns its record."""
    tag = f"{args.workload}-seed{args.seed}"
    out = WORK / f"{tag}.{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--params", json.dumps(params),
           "--seconds", str(seconds), "--mode", mode, "--out", str(out),
           "--trace-prefix", str(WORK / tag)]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    cmd += ["--t-spawn", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=2 * seconds + 90)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(out.read_text())


def pool(parts: list[dict]) -> dict:
    """One record from the parts of a run, measured in separate processes."""
    out = dict(parts[-1])
    for key in ("op_s", "ingest_s", "query_s", "late_s", "rungs"):
        if key in out:
            out[key] = [x for rec in parts for x in rec[key]]
    for key in ("attempted", "failed", "points", "loop_s", "sim_s", "busy", "ingests"):
        if key in out:
            out[key] = sum(rec[key] for rec in parts)
    out["peak_rss_mb"] = stats.median(rec["peak_rss_mb"] for rec in parts)
    out["chunks_exhausted"] = any(rec.get("chunks_exhausted") for rec in parts)
    if "rungs" in out:
        out["backlog_max"] = max(rec["backlog_max"] for rec in parts)
        rates = {r["rate"] for r in out["rungs"]}
        passing = [[r["offered_pps"] for r in out["rungs"] if r["rate"] == rate]
                   for rate in rates
                   if all(r["meets_limit"] for r in out["rungs"] if r["rate"] == rate)]
        out["max_pps"] = max((stats.mean(p) for p in passing), default=0.0)
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


# --------------------------------------------------------------------------- #
# Metrics.
# --------------------------------------------------------------------------- #
def end_to_end(workload: str, rec: dict, setups: list[float]) -> tuple[dict, dict]:
    """``(values, tails)``: every end-to-end metric, and the record of each tail."""
    op = OP_NAME[workload]
    tails = {f"{op}_tail": stats.tail(rec["op_s"])}
    values = {
        "setup_s": stats.median(setups),
        "points_per_s": rec["points"] / rec["loop_s"],
        f"{op}_p50": stats.median(rec["op_s"]),
        f"{op}_tail": tails[f"{op}_tail"]["value"],
        "sim_s_per_kpt": rec["sim_s"] / rec["points"] * 1000.0,
        "peak_rss_mb": rec["peak_rss_mb"],
        "failed_frac": rec["failed"] / rec["attempted"],
    }
    values["op_s_p50"], values["op_s_tail"] = values[f"{op}_p50"], values[f"{op}_tail"]
    if workload == "service-tenants":
        for name in ("ingest_s", "query_s"):
            tails[f"{name}_tail"] = stats.tail(rec[name])
            values[f"{name}_p50"] = stats.median(rec[name])
            values[f"{name}_tail"] = (tails[f"{name}_tail"] or {}).get("value")
        tails["loadgen.late_s_tail"] = stats.tail(rec["late_s"])
        values["max_pps"] = rec["max_pps"]
        values["loadgen.late_s_tail"] = tails["loadgen.late_s_tail"]["value"]
        values["service.backlog_max"] = rec["backlog_max"]
    return values, tails


UNITS = {"setup_s": "s", "points_per_s": "points/s", "sim_s_per_kpt": "s/kpt",
         "peak_rss_mb": "MiB", "failed_frac": "ratio", "max_pps": "points/s",
         "service.backlog_max": "count"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")


def describe_tail(t: dict | None) -> str:
    if t is None:
        return "no samples"
    if t["percentile"] is None:
        return f"max: too few samples for a tail, n={t['n']}"
    return f"p{t['percentile']} of n={t['n']}"


def print_record(record: dict) -> None:
    print("record: " + json.dumps(record, sort_keys=True))


def print_checks(records: list[dict]) -> bool:
    ok = True
    for rec in records:
        for c in rec["checks"]:
            ok &= c["ok"]
            status = "ok" if c["ok"] else "FAILED"
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"check {status}: {c['name']}{detail}")
    return ok


def run(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    prepare_environment(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from repro.native import dispatch

    dispatch.status()  # compiles the kernels once, before anything is timed
    params = dict(PARAMS[args.workload], **(TOY[args.workload] if args.toy else {}),
                  seed=args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    inputs = WORK / f"{tag}.inputs.npz"
    np.savez(inputs, **make_inputs(args.workload, params, args.seed))

    if args.trace:
        # The untraced run only gives trace.overhead_frac its baseline.
        records = [spawn(args, "run", inputs, params, args.seconds / 2),
                   spawn(args, "traced", inputs, params, args.seconds)]
    else:
        parts = PARTS[args.workload]
        records = [spawn(args, "run", inputs, dict(params, part=k, with_ladder=k == parts - 1),
                         args.seconds / parts) for k in range(parts)]
        setups = [rec["setup_s"] for rec in records]
    for rec in records:
        if rec["kernel"] != expected["kernel"]:
            print(f"perfbench: INVALID run: kernel tier {rec['kernel']} differs from "
                  f"{expected['kernel']} in perfbench/expected.json; nothing reported",
                  file=sys.stderr)
            return 3

    main = records[-1] if args.trace else pool(records)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "kernel": main["kernel"],
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(), "params": params,
    }
    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if args.trace:
        metrics = per_layer(args, records, record)
    else:
        metrics = report_end_to_end(args, main, setups, record)
    (WORK / f"{tag}.trace{args.trace}.record.json").write_text(
        json.dumps(dict(record, metrics=metrics), sort_keys=True, default=float))
    correct = print_checks(records)
    names = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": int(main["attempted"]),
        "failed": int(main["failed"]),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def report_end_to_end(args, rec: dict, setups: list[float], record: dict) -> dict:
    values, tails = end_to_end(args.workload, rec, setups)
    record["tails"] = tails
    record["setup_samples"] = setups
    if args.workload == "service-tenants":
        record["rungs"] = rec["rungs"]
    if rec.get("chunks_exhausted"):
        print("perfbench: warning: the stream ran out of chunks before --seconds elapsed")
    print_record(record)
    op = OP_NAME[args.workload]
    aliases = {f"{op}_p50": "op_s_p50", f"{op}_tail": "op_s_tail"}
    for name, value in values.items():
        if name in ("op_s_p50", "op_s_tail"):
            continue
        note = f"  ({aliases[name]} in the result)" if name in aliases else ""
        if name in tails:
            note += f"  [{describe_tail(tails[name])}]"
        elif name.endswith("_p50"):
            note += f"  [n={len(rec['op_s' if name in aliases else name[:-4]])}]"
        shown = "no samples" if value is None else f"{value:.6g} {unit_of(name)}"
        print(f"metric {name} = {shown}{note}")
    if args.workload == "service-tenants":
        for rung in rec["rungs"]:
            print(f"rung {rung['rate']:g} ingests/s: offered {rung['offered_pps']:.0f} points/s, "
                  f"ingest_s_tail {rung['ingest_s_tail']['value']:.4g} s "
                  f"[{describe_tail(rung['ingest_s_tail'])}], "
                  f"late_s_tail {rung['late_s_tail']['value']:.4g} s, "
                  f"drain {rung['drain_s']:.3g} s, failed {rung['failed']}, "
                  f"{'meets' if rung['meets_limit'] else 'misses'} the "
                  f"{PARAMS['service-tenants']['limit_s']:g} s limit")
    return values


def per_layer(args, records: list[dict], record: dict) -> dict:
    base, traced = records
    op = OP_NAME[args.workload]
    base_p50, traced_p50 = stats.median(base["op_s"]), stats.median(traced["op_s"])
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = (traced_p50 - base_p50) / base_p50
    record["trace_files"] = [str(WORK / f"{args.workload}-seed{args.seed}.trace.json"),
                             str(WORK / f"{args.workload}-seed{args.seed}.selftime.txt")]
    print_record(record)
    print(f"traced {op}_p50 = {traced_p50:.6g} s, untraced {op}_p50 = {base_p50:.6g} s")
    values = {}
    for name, unit in LAYER_METRICS:
        value = layers.get(name)
        if isinstance(value, dict):  # a tail record
            note = f"  [{describe_tail(value)}]"
            value = value["value"]
        else:
            note = ""
        if value is None:
            print(f"layer {name} = idle (this workload never reaches it)")
            values[name] = 0.0
        else:
            print(f"layer {name} = {value:.6g} {unit}{note}")
            values[name] = value
    print("self time by span (traced ops; shares of their wall time):")
    print(traced["self_time"])
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run it from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
