#!/usr/bin/env python
"""Benchmark runner: execute a set of experiments and emit a JSON snapshot.

The default **smoke** profile runs a small, representative slice of the
experiment registry — the backend ablation, the triangle-mode ablation and
the tiled-scaling experiment, plus one streaming workload — at a reduced
scale, so it finishes in minutes on a single CPU.  CI runs it on every push
(with a wall-clock budget assertion, see ``--budget-file``) and uploads
``BENCH_smoke.json`` as an artifact, which is what gives the project a
recorded performance trajectory over time.

The simulated seconds in these snapshots are the numbers compared with the
paper.  Host wall-clock performance is measured by ``perfbench/run.py`` (see
``BENCHMARK.json``), and the native kernel tier's parity and speedup gates
live in ``benchmarks/test_native_kernels.py``.

Usage::

    PYTHONPATH=src python scripts/run_bench.py                 # smoke profile
    PYTHONPATH=src python scripts/run_bench.py --profile full  # every experiment
    PYTHONPATH=src python scripts/run_bench.py --experiments scaling backends \\
        --scale 0.25 --workers 2 --out my_bench.json

The full profile at scale 1.0 takes much longer (the paper-scale sweeps run
up to 64 K points per configuration); on a small container run it detached,
e.g. ``nohup python scripts/run_bench.py --profile full &``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.bench.experiments import (  # noqa: E402
    list_experiments,
    list_streaming_experiments,
    run_experiment,
    run_streaming_experiment,
)

#: experiment slice + scale that completes in minutes on one CPU.
SMOKE = {
    "experiments": ["backends", "sec6c", "scaling"],
    "streaming": ["stream-drift"],
    "scale": 0.5,
}

FULL = {
    "experiments": list_experiments(),
    "streaming": list_streaming_experiments(),
    "scale": 1.0,
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("smoke", "full"), default="smoke",
                        help="experiment slice to run (default smoke)")
    parser.add_argument("--experiments", nargs="*", default=None, metavar="ID",
                        help="explicit experiment ids (overrides the profile slice)")
    parser.add_argument("--streaming", nargs="*", default=None, metavar="ID",
                        help="explicit streaming experiment ids (overrides the profile)")
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset-size scale factor (default: profile's)")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep-cell parallelism via the ParallelMap executor")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_<profile>.json)")
    parser.add_argument("--budget-file", default=None, metavar="JSON",
                        help="smoke budget: JSON with smoke_seconds_seed and "
                             "smoke_budget_factor; exit 3 when the run exceeds "
                             "seed seconds x factor")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.time()
    profile = SMOKE if args.profile == "smoke" else FULL
    experiments = args.experiments if args.experiments is not None else profile["experiments"]
    streaming = args.streaming if args.streaming is not None else profile["streaming"]
    scale = args.scale if args.scale is not None else profile["scale"]
    out = Path(args.out) if args.out else Path(f"BENCH_{args.profile}.json")
    payload: dict = {
        "meta": {
            "profile": args.profile,
            "scale": scale,
            "workers": args.workers,
            "repro_version": repro.__version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "started_unix": started,
        },
        "experiments": {},
        "streaming": {},
    }

    for exp_id in experiments:
        t0 = time.perf_counter()
        print(f"[bench] experiment {exp_id} (scale {scale}) ...", flush=True)
        records = run_experiment(exp_id, scale=scale, workers=args.workers)
        payload["experiments"][exp_id] = {
            "wall_seconds": time.perf_counter() - t0,
            "records": [r.as_dict() for r in records],
        }
        oks = sum(r.status == "ok" for r in records)
        print(f"[bench]   {len(records)} records ({oks} ok) "
              f"in {payload['experiments'][exp_id]['wall_seconds']:.1f}s", flush=True)

    for exp_id in streaming:
        t0 = time.perf_counter()
        print(f"[bench] streaming {exp_id} (scale {scale}) ...", flush=True)
        result = run_streaming_experiment(exp_id, scale=scale)
        payload["streaming"][exp_id] = {
            "wall_seconds": time.perf_counter() - t0,
            "result": result.as_dict(),
        }
        print(f"[bench]   {len(result.updates)} updates "
              f"in {payload['streaming'][exp_id]['wall_seconds']:.1f}s", flush=True)

    payload["meta"]["total_wall_seconds"] = time.time() - started
    out.write_text(json.dumps(payload, indent=2, default=float))
    print(f"[bench] wrote {out} ({payload['meta']['total_wall_seconds']:.1f}s total)")

    if args.budget_file:
        budget = json.loads(Path(args.budget_file).read_text())
        seed_seconds = float(budget["smoke_seconds_seed"])
        factor = float(budget.get("smoke_budget_factor", 2.0))
        limit = seed_seconds * factor
        total = payload["meta"]["total_wall_seconds"]
        if total > limit:
            print(f"[bench] BUDGET EXCEEDED: {total:.1f}s > {limit:.1f}s "
                  f"({seed_seconds:.1f}s seed x {factor:g})", file=sys.stderr)
            return 3
        print(f"[bench] within budget: {total:.1f}s <= {limit:.1f}s "
              f"({seed_seconds:.1f}s seed x {factor:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
