"""Command-line interface.

Five subcommands cover the common workflows:

* ``rt-dbscan cluster``     — run any registered DBSCAN variant on a CSV file
  or a named synthetic dataset and print (or save) the labels;
* ``rt-dbscan stream``      — run the streaming engine over a synthetic
  point stream (sliding window, refit-aware scene maintenance) and print
  per-chunk progress plus throughput totals;
* ``rt-dbscan serve``       — start the multi-tenant streaming clustering
  service: one session per tenant/feed behind a JSON-lines TCP front-end
  with micro-batching, backpressure and idle-session eviction;
* ``rt-dbscan experiment``  — regenerate one of the paper's tables/figures
  (by experiment id, see ``rt-dbscan list``) and print the report;
* ``rt-dbscan list``        — list available datasets, streams, algorithms,
  neighbour backends and experiments;
* ``rt-dbscan native``      — diagnose the optional compiled kernel tier
  (build status, cache location, fallback reason).

Algorithms and neighbour backends are resolved from the registries in
:mod:`repro.api.registry`: ``--algo rt-dbscan --backend kdtree`` (or the
compact ``--algo rt-dbscan@kdtree``) runs the paper's Algorithm 3 on the
KD-tree substrate.  The console script is installed as ``rt-dbscan``; the
module can also be run with ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap

import numpy as np

from .api import ClustererSpec, make_clusterer
from .api.facade import DEFAULT_REFERENCE
from .api.registry import get_algorithm, get_backend, list_algorithms, list_backends
from .bench.experiments import (
    get_experiment,
    get_streaming_experiment,
    list_experiments,
    list_streaming_experiments,
    run_experiment,
    run_streaming,
)
from .bench.report import (
    format_agreement_table,
    format_breakdown,
    format_records,
    format_speedup_table,
    format_time_table,
)
from .bench.runner import run_single
from .data.registry import generate, list_datasets
from .data.stream import list_streams

__all__ = ["main", "build_parser"]

#: shown by ``rt-dbscan stream --help`` so the help output doubles as docs.
STREAM_EPILOG = textwrap.dedent(
    """\
    examples:
      # sliding-window clustering of drifting blobs; the cost-model policy
      # decides per chunk whether to refit or rebuild the BVH
      rt-dbscan stream --stream drift-blobs --chunks 16 --chunk-size 150 \\
          --window 1800 --min-pts 5

      # the paper's dense NGSIM corridor (Section V-C) replayed as a feed
      rt-dbscan stream --stream ngsim-replay --chunks 10 --chunk-size 300 \\
          --window 1500 --eps 0.0005 --min-pts 100

      # force a rebuild on every chunk to measure what refit saves
      rt-dbscan stream --stream drift-blobs --mode rebuild

      # machine-readable per-chunk records and totals
      rt-dbscan stream --stream burst-hotspots --json

    Omitting --eps calibrates it with the k-distance heuristic over the
    materialised stream (quantile 0.30), the same procedure the batch
    experiments use.  Omitting --window grows the window without bound
    (no evictions), in which case the final labels are identical to batch
    rt-dbscan on the concatenated stream.
    """
)

SERVE_EPILOG = textwrap.dedent(
    """\
    examples:
      # serve on the default port; every tenant gets its own sliding-window
      # streaming session (created on first ingest, evicted after 5 idle min)
      rt-dbscan serve --eps 0.3 --min-pts 5 --window 2000

      # ephemeral port for scripts: the bound port is written to a file
      rt-dbscan serve --eps 0.3 --min-pts 5 --port 0 --port-file port.txt

      # CI smoke shape: stop after N requests instead of waiting for a
      # {"op": "shutdown"} request
      rt-dbscan serve --eps 0.3 --min-pts 5 --port 0 --max-requests 16

      # durable sessions: evicted/idle windows spill to --state-dir as
      # checksummed checkpoints, tenants restore transparently on their
      # next request, and a crashed server restarts warm
      rt-dbscan serve --eps 0.3 --min-pts 5 --window 2000 \\
          --state-dir /var/lib/rt-dbscan --checkpoint-interval 30

      # offline integrity sweep of a state dir (no server started)
      rt-dbscan serve --restore-check /var/lib/rt-dbscan

    The wire protocol is one JSON object per line; ops are ingest,
    query_labels, snapshot, evict, stats, metrics (Prometheus text),
    checkpoint and shutdown, e.g.:

      {"op": "ingest", "tenant": "feed-a", "points": [[0.1, 0.2], ...]}
      {"op": "query_labels", "tenant": "feed-a"}
      {"op": "stats"}

    Ingest responses return as soon as the chunk is queued; a per-session
    worker coalesces queued chunks into micro-batched update() calls
    (labels are invariant to the coalescing).  A tenant that outruns its
    queue budget gets {"status": "busy", "retry_after_s": ...} instead of
    unbounded buffering.
    """
)

CLUSTER_EPILOG = textwrap.dedent(
    """\
    examples:
      # the paper's RT-core pipeline on a synthetic dataset
      rt-dbscan cluster --dataset blobs --num-points 5000 --eps 0.3 --min-pts 10

      # the same Algorithm 3 on the KD-tree substrate (CPU fast path)
      rt-dbscan cluster --dataset blobs --num-points 5000 --eps 0.3 \\
          --min-pts 10 --algo rt-dbscan --backend kdtree

      # scale out: shard into 4 spatial tiles (eps-halo ghost zones) and fit
      # them on 4 worker threads; labels are identical to the untiled run
      rt-dbscan cluster --dataset blobs --num-points 50000 --eps 0.3 \\
          --min-pts 10 --tiles 4 --workers 4

      # the approximate tier: LSH candidates at a 0.8 recall target; the run
      # automatically reports ARI + core/noise/partition agreement against
      # the exact kdtree reference
      rt-dbscan cluster --dataset blobs --num-points 5000 --eps 0.3 \\
          --min-pts 10 --backend lsh --recall-target 0.8

    Algorithm and backend names come from the registry; run `rt-dbscan list`
    to see them all.  --algo also accepts the compact algo@backend spelling.
    --tiles upgrades the default rt-dbscan to the tiled variant automatically.
    Approximate backends (lsh, sampled) get an agreement report against
    --reference (default rt-dbscan@kdtree; 'none' disables it).
    """
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="rt-dbscan",
        description="RT-DBSCAN reproduction: DBSCAN on a simulated ray-tracing device.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -- cluster --------------------------------------------------------- #
    p_cluster = sub.add_parser(
        "cluster",
        help="cluster a CSV file or a synthetic dataset",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=CLUSTER_EPILOG,
    )
    src = p_cluster.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file with 2 or 3 numeric columns (no header)")
    src.add_argument("--dataset", choices=list_datasets(), help="named synthetic dataset")
    p_cluster.add_argument("--num-points", type=int, default=10_000,
                           help="points to generate when using --dataset (default 10000)")
    p_cluster.add_argument("--seed", type=int, default=0, help="generator seed")
    p_cluster.add_argument("--eps", type=float, required=True, help="DBSCAN eps radius")
    p_cluster.add_argument("--min-pts", type=int, required=True, help="DBSCAN minPts")
    p_cluster.add_argument("--algorithm", "--algo", dest="algorithm", default="rt-dbscan",
                           metavar="NAME",
                           help="registered algorithm, optionally algo@backend "
                                "(default rt-dbscan; see 'rt-dbscan list')")
    p_cluster.add_argument("--backend", choices=list_backends(), default=None,
                           help="neighbour backend for backend-pluggable algorithms")
    p_cluster.add_argument("--tiles", type=int, default=None,
                           help="shard into N spatial tiles with eps-halo ghost zones "
                                "(upgrades rt-dbscan to rt-dbscan-tiled)")
    p_cluster.add_argument("--workers", type=int, default=None,
                           help="tile-fit parallelism for the ParallelMap executor "
                                "(default serial)")
    p_cluster.add_argument("--native", choices=("auto", "on", "off"), default="auto",
                           help="kernel tier for algorithms tagged [native]: compiled "
                                "C hot loops (on), pure numpy (off), or the "
                                "REPRO_NATIVE environment default (auto); labels are "
                                "identical either way")
    p_cluster.add_argument("--native-threads", type=int, default=None,
                           help="OpenMP worker count for the native kernels "
                                "(default: the REPRO_NATIVE_THREADS environment "
                                "knob, itself defaulting to one worker per core); "
                                "labels are identical at any count")
    p_cluster.add_argument("--recall-target", type=float, default=None,
                           help="lsh backend: per-edge recall target in (0, 1]; "
                                "1.0 falls back to the exact exhaustive sweep")
    p_cluster.add_argument("--probes", type=int, default=None,
                           help="lsh backend: explicit probe-table count "
                                "(overrides --recall-target)")
    p_cluster.add_argument("--sample-rate", type=float, default=None,
                           help="sampled backend: candidate-pool fraction in (0, 1]")
    p_cluster.add_argument("--reference", default="auto", metavar="ALGO",
                           help="exact reference for the agreement report: an "
                                "algorithm name (algo or algo@backend), 'none' to "
                                "disable, or 'auto' (default) which compares "
                                f"approximate backends against {DEFAULT_REFERENCE}")
    p_cluster.add_argument("--output", help="write labels (one per line) to this file")
    p_cluster.add_argument("--json", action="store_true", help="print the summary as JSON")

    # -- stream ----------------------------------------------------------- #
    p_stream = sub.add_parser(
        "stream",
        help="run streaming RT-DBSCAN over a synthetic point stream",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=STREAM_EPILOG,
    )
    p_stream.add_argument("--stream", default="drift-blobs", choices=list_streams(),
                          help="named stream generator (default drift-blobs)")
    p_stream.add_argument("--chunks", type=int, default=12,
                          help="number of chunks to feed (default 12)")
    p_stream.add_argument("--chunk-size", type=int, default=200,
                          help="points per chunk (default 200)")
    p_stream.add_argument("--window", type=int, default=None,
                          help="sliding-window size in points (default: grow unbounded)")
    p_stream.add_argument("--eps", type=float, default=None,
                          help="DBSCAN eps (default: k-distance calibration over the stream)")
    p_stream.add_argument("--min-pts", type=int, default=5, help="DBSCAN minPts (default 5)")
    p_stream.add_argument("--mode", default="auto", choices=("auto", "refit", "rebuild"),
                          help="scene maintenance policy (default auto = cost-model driven)")
    p_stream.add_argument("--seed", type=int, default=2023, help="stream generator seed")
    p_stream.add_argument("--json", action="store_true",
                          help="print per-chunk records and totals as JSON")

    # -- serve ------------------------------------------------------------ #
    p_serve = sub.add_parser(
        "serve",
        help="start the multi-tenant streaming clustering service (TCP/JSON-lines)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=SERVE_EPILOG,
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=7155,
                         help="bind port; 0 picks a free ephemeral port (default 7155)")
    p_serve.add_argument("--port-file", default=None, metavar="PATH",
                         help="write the bound port number to this file once listening")
    p_serve.add_argument("--max-requests", type=int, default=None,
                         help="shut down after serving N requests (default: run until "
                              "a shutdown request arrives)")
    p_serve.add_argument("--eps", type=float, default=None,
                         help="DBSCAN eps shared by every tenant session "
                              "(required unless --restore-check)")
    p_serve.add_argument("--min-pts", type=int, default=None,
                         help="DBSCAN minPts (required unless --restore-check)")
    p_serve.add_argument("--window", type=int, default=None,
                         help="per-session sliding-window size in points "
                              "(default: grow unbounded)")
    p_serve.add_argument("--algo", default="streaming-rt-dbscan", metavar="NAME",
                         help="session algorithm: streaming-rt-dbscan, optionally "
                              "@backend (default streaming-rt-dbscan)")
    p_serve.add_argument("--max-sessions", type=int, default=64,
                         help="session pool capacity (default 64); at capacity the "
                              "least-recently-used idle session is evicted")
    p_serve.add_argument("--session-ttl", type=float, default=300.0, metavar="SECONDS",
                         help="evict sessions idle longer than this (default 300; "
                              "0 disables TTL eviction)")
    p_serve.add_argument("--max-queue-chunks", type=int, default=64,
                         help="per-session pending-chunk budget before ingests get "
                              "busy/retry-after backpressure (default 64)")
    p_serve.add_argument("--max-batch-chunks", type=int, default=8,
                         help="micro-batch coalescing cap per update() call (default 8)")
    p_serve.add_argument("--state-dir", default=None, metavar="DIR",
                         help="durable session state: evicted/idle sessions spill "
                              "checksummed checkpoints here and restore on the "
                              "tenant's next request (default: state is dropped)")
    p_serve.add_argument("--checkpoint-interval", type=float, default=30.0,
                         metavar="SECONDS",
                         help="background checkpoint cadence for live sessions "
                              "(default 30; 0 disables; needs --state-dir)")
    p_serve.add_argument("--restore-check", default=None, metavar="DIR",
                         help="offline diagnostic: verify every checkpoint in DIR "
                              "(header, CRC32, snapshot schema) and exit without "
                              "starting a server")

    # -- experiment ------------------------------------------------------ #
    p_exp = sub.add_parser("experiment", help="regenerate one of the paper's tables/figures")
    p_exp.add_argument("id", choices=list_experiments(), help="experiment id (e.g. fig5c, table1)")
    p_exp.add_argument("--scale", type=float, default=1.0,
                       help="scale factor applied to the experiment's dataset sizes (default 1.0)")
    p_exp.add_argument("--workers", type=int, default=None,
                       help="run the sweep's configurations concurrently on N workers "
                            "(default serial, keeping wall-clock timings deterministic)")
    p_exp.add_argument("--json", action="store_true", help="print raw records as JSON")

    # -- list ------------------------------------------------------------ #
    sub.add_parser("list", help="list datasets, algorithms, backends and experiments")

    # -- native ----------------------------------------------------------- #
    p_native = sub.add_parser(
        "native", help="diagnose the optional compiled (cffi) kernel tier"
    )
    p_native.add_argument("--json", action="store_true",
                          help="print the status dictionary as JSON")
    return parser


def _load_points(args: argparse.Namespace) -> np.ndarray:
    if args.input:
        pts = np.loadtxt(args.input, delimiter=",", dtype=np.float64)
        return np.atleast_2d(pts)
    return generate(args.dataset, args.num_points, seed=args.seed)


def _tiled_algorithm_name(algorithm: str, tiles: int | None) -> str:
    """Upgrade the default algorithm to the tiled variant when --tiles is set.

    Only the plain ``rt-dbscan`` spelling (optionally with an ``@backend``
    suffix) is rewritten; any other explicit --algo choice is respected and
    validated against its registry entry instead.
    """
    if tiles is None:
        return algorithm
    base, sep, backend = algorithm.partition("@")
    if base.lower() == "rt-dbscan":
        return f"rt-dbscan-tiled{sep}{backend}"
    return algorithm


def _cmd_cluster(args: argparse.Namespace) -> int:
    algorithm = _tiled_algorithm_name(args.algorithm, args.tiles)
    native = {"auto": None, "on": True, "off": False}[args.native]
    backend_kwargs = {
        knob: value
        for knob, value in (
            ("recall_target", args.recall_target),
            ("num_probes", args.probes),
            ("sample_rate", args.sample_rate),
        )
        if value is not None
    }
    params = {"backend_kwargs": backend_kwargs} if backend_kwargs else {}
    try:
        # Validates the whole combination up front: algorithm name, backend
        # name, algo@backend consistency, tiles/workers support, the numeric
        # parameters and the backend-specific knobs.
        spec = ClustererSpec(
            algo=algorithm, eps=args.eps, min_pts=args.min_pts,
            backend=args.backend, tiles=args.tiles, workers=args.workers,
            native=native, native_threads=args.native_threads, params=params,
        )
        _, resolved_backend = spec.resolve()
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = None if args.reference == "none" else args.reference
    if reference == "auto":
        # Approximate backends always ship with their error bar; exact runs
        # need no reference.
        approximate = (
            resolved_backend is not None and not get_backend(resolved_backend).exact
        )
        reference = DEFAULT_REFERENCE if approximate else None
    points = _load_points(args)
    extra_kwargs = {}
    if args.tiles is not None:
        extra_kwargs["tiles"] = args.tiles
    if args.workers is not None:
        extra_kwargs["workers"] = args.workers
    if native is not None:
        extra_kwargs["native"] = native
    if args.native_threads is not None:
        extra_kwargs["native_threads"] = args.native_threads
    if backend_kwargs:
        extra_kwargs["backend_kwargs"] = backend_kwargs
    record = run_single(
        algorithm, points, args.eps, args.min_pts,
        dataset=args.dataset or args.input, backend=args.backend,
        reference=reference, **extra_kwargs,
    )
    if args.json:
        print(json.dumps(record.as_dict(), indent=2))
    else:
        print(format_records([record]))
        if record.extra.get("agreement"):
            print()
            print(format_agreement_table(
                [record], title=f"Agreement vs exact reference ({reference})"
            ))
        if record.breakdown:
            print()
            print(format_breakdown(record))
    if args.output and record.status == "ok":
        # Labels are only materialised when they must be persisted.
        result = make_clusterer(spec).fit(points)
        np.savetxt(args.output, result.labels, fmt="%d")
        print(f"labels written to {args.output}")
    return 0 if record.status == "ok" else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    result = run_streaming(
        args.stream,
        args.chunks,
        args.chunk_size,
        window=args.window,
        eps=args.eps,
        min_pts=args.min_pts,
        seed=args.seed,
        mode=args.mode,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0

    print(f"# streaming rt-dbscan: stream={args.stream} mode={args.mode} "
          f"eps={result.eps:.6g} minPts={result.min_pts} window={args.window or 'unbounded'}")
    header = (f"{'chunk':>5} {'new':>6} {'evict':>6} {'window':>7} {'clusters':>8} "
              f"{'noise':>6} {'accel':>8} {'sim_s':>12}")
    print(header)
    print("-" * len(header))
    for u in result.updates:
        print(f"{u.chunk_index:>5} {u.num_new:>6} {u.num_evicted:>6} {u.window_size:>7} "
              f"{u.num_clusters:>8} {u.num_noise:>6} {u.accel_action:>8} "
              f"{u.simulated_seconds:>12.6f}")
    s = result.summary
    scene = s["scene"]
    print()
    print(f"totals: {s['points_ingested']} points in {s['num_updates']} updates "
          f"({s['points_evicted']} evicted)")
    print(f"  accel maintenance: {scene['num_refits']} refits, {scene['num_builds']} builds "
          f"({result.maintenance_seconds:.6f} simulated s)")
    print(f"  throughput: {result.updates_per_simulated_second:,.1f} updates/s, "
          f"{result.points_per_simulated_second:,.0f} points/s (simulated)")
    print(f"  simulated total: {s['total_simulated_seconds']:.6f} s, "
          f"wall total: {s['total_wall_seconds']:.3f} s")
    return 0


def _cmd_restore_check(state_dir: str) -> int:
    """Offline checkpoint integrity sweep (``serve --restore-check``)."""
    from .service import verify_checkpoint_dir

    reports = verify_checkpoint_dir(state_dir, deep=True)
    if not reports:
        print(f"no checkpoints found in {state_dir}")
        return 0
    bad = 0
    for report in reports:
        if report["ok"]:
            print(f"ok      {report['tenant']:<24} window={report['window_points']:<8} "
                  f"backend={report['backend']}  {report['path']}")
        else:
            bad += 1
            print(f"CORRUPT {report['tenant']:<24} {report['path']}: {report['error']}")
    print(f"{len(reports) - bad}/{len(reports)} checkpoint(s) verified")
    return 0 if bad == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the service layer (asyncio machinery) only loads for
    # the subcommand that needs it.
    from .service import ServiceConfig, run_server

    if args.restore_check is not None:
        return _cmd_restore_check(args.restore_check)
    if args.eps is None or args.min_pts is None:
        print("error: --eps and --min-pts are required to start the server "
              "(only --restore-check runs without them)", file=sys.stderr)
        return 2
    params = {"window": args.window} if args.window is not None else {}
    try:
        config = ServiceConfig(
            spec=ClustererSpec(algo=args.algo, eps=args.eps, min_pts=args.min_pts,
                               params=params),
            max_sessions=args.max_sessions,
            session_ttl_s=args.session_ttl if args.session_ttl > 0 else None,
            max_queue_chunks=args.max_queue_chunks,
            max_batch_chunks=args.max_batch_chunks,
            state_dir=args.state_dir,
            checkpoint_interval_s=(
                args.checkpoint_interval if args.checkpoint_interval > 0 else None
            ),
        )
        return run_server(
            config,
            host=args.host,
            port=args.port,
            port_file=args.port_file,
            max_requests=args.max_requests,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = get_experiment(args.id)
    records = run_experiment(args.id, scale=args.scale, workers=args.workers)
    if args.json:
        print(json.dumps([r.as_dict() for r in records], indent=2))
        return 0
    print(f"# {spec.paper_ref}: {spec.title}")
    print(f"# dataset={spec.dataset}  minPts={spec.min_pts}  scale={args.scale}")
    print()
    if spec.mode == "approx_sweep":
        print(format_agreement_table(
            records, title=f"Speedup vs agreement (exact baseline: {spec.baseline})"
        ))
        return 0
    vary = "eps" if spec.mode == "eps_sweep" else "num_points"
    print(format_time_table(records, algorithms=list(spec.algorithms), vary=vary,
                            title="Execution time (simulated seconds)"))
    print()
    targets = [a for a in spec.algorithms if a != spec.baseline]
    print(format_speedup_table(records, baseline=spec.baseline, targets=targets, vary=vary,
                               title=f"Speedup over {spec.baseline}"))
    if spec.mode == "breakdown":
        print()
        for r in records:
            if r.status == "ok":
                print(format_breakdown(r))
                print()
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("datasets:")
    for name in list_datasets():
        print(f"  {name}")
    print("streams:")
    for name in list_streams():
        print(f"  {name}")
    print("algorithms:")
    for name in list_algorithms():
        entry = get_algorithm(name)
        tags = []
        if entry.supports_backend:
            tags.append("backends")
        if entry.supports_tiles:
            tags.append("tiles")
        if entry.supports_native:
            tags.append("native")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(f"  {name:<22} {entry.description}{suffix}")
    print("neighbour backends (for algorithms tagged [backends]):")
    for name in list_backends():
        entry = get_backend(name)
        tags = []
        if not entry.exact:
            tags.append("approximate")
        if entry.native:
            tags.append("native")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(f"  {name:<22} {entry.description}{suffix}")
    print("experiments:")
    for exp_id in list_experiments():
        spec = get_experiment(exp_id)
        print(f"  {exp_id:<8} {spec.paper_ref:<18} {spec.title}")
    print("streaming experiments:")
    for exp_id in list_streaming_experiments():
        sspec = get_streaming_experiment(exp_id)
        print(f"  {exp_id:<13} {sspec.title}")
    return 0


def _cmd_native(args: argparse.Namespace) -> int:
    from .native import dispatch as native_dispatch

    status = native_dispatch.status()
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    print("native kernel tier (cffi-compiled C hot loops):")
    print(f"  mode:            {status['mode']}  (REPRO_NATIVE={status['env'] or 'unset'})")
    print(f"  active:          {status['active']}")
    print(f"  built:           {status['built']}")
    print(f"  module:          {status['module'] or 'n/a'}")
    print(f"  cache dir:       {status['cache_dir']}")
    openmp = status["openmp"]
    openmp_str = "unknown (not built)" if openmp is None else str(openmp)
    if not status["openmp_requested"]:
        openmp_str += "  (disabled via REPRO_NATIVE_NO_OPENMP)"
    print(f"  openmp:          {openmp_str}")
    requested = status["requested_threads"]
    print(
        f"  threads:         {status['resolved_threads']} resolved  "
        f"(requested {'auto' if requested is None else requested}, "
        f"REPRO_NATIVE_THREADS={status['threads_env'] or 'unset'}, "
        f"omp max {status['max_threads'] if status['max_threads'] is not None else 'n/a'})"
    )
    if status["fallback_reason"]:
        print(f"  fallback reason: {status['fallback_reason']}")
    print("  kernels:")
    for name, info in status["kernels"].items():
        par = "parallel" if info["parallel"] else "serial"
        print(f"    {name:<16} {info['tier']}/{par:<9} {info['serves']}")
    return 0 if status["active"] or status["mode"] == "off" else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``rt-dbscan`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "native":
        return _cmd_native(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
