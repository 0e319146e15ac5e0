"""The benchmark's own tests, at toy sizes: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", "--toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    for m in DECLARED["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    printed = {line.split()[1]: line.split()[4] for line in proc.stdout.splitlines()
               if line.startswith("metric ")}
    op = run.OP_NAME[workload]
    names = ["setup_s", "points_per_s", f"{op}_p50", f"{op}_tail", "sim_s_per_kpt",
             "peak_rss_mb", "failed_frac"]
    if workload == "service-tenants":
        names += ["query_s_p50", "query_s_tail", "max_pps", "loadgen.late_s_tail",
                  "service.backlog_max"]
    for name in names:
        assert printed[name] == run.unit_of(name)
    record = json.loads(next(line for line in proc.stdout.splitlines()
                             if line.startswith("record: "))[len("record: "):])
    assert {"nproc", "kernel", "python", "numpy", "commit", "seed", "tails"} <= set(record)
    assert record["kernel"]["variant"] and "fallback_reason" in record["kernel"]
    assert all(t["n"] >= 1 for t in record["tails"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    units = dict(run.LAYER_METRICS)
    for m in DECLARED["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"] == units[m["name"]]
    printed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("layer ")]
    assert printed == [name for name, _ in run.LAYER_METRICS]
    shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0)
    trace = json.loads((ROOT / ".bench_build" / "perfbench"
                        / f"{workload}-seed4.trace.json").read_text())
    assert trace["traceEvents"] and all(e["ph"] == "X" for e in trace["traceEvents"])


@pytest.mark.parametrize("workload,corrupt", [
    ("fit-blobs", "label"),
    ("fit-ngsim-tiled", "label"),
    ("stream-window", "label"),
    ("service-tenants", "skip-chunk"),
])
def test_corrupted_output_fails_the_check(workload, corrupt):
    proc = bench("--workload", workload, "--seed", "5", "--trace", "0", "--corrupt", corrupt)
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert "check FAILED" in proc.stdout


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "fit-blobs", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_tail_is_the_sample_with_ten_beyond_it():
    values = list(range(100))
    assert stats.tail(values) == {"value": 89, "percentile": 90.0, "n": 100}
    assert stats.tail(range(15)) == {"value": 14, "percentile": None, "n": 15}


def test_self_times_split_concurrent_children_and_add_up():
    t = tracing.Tracer()
    with t.op("op.fit"):
        time.sleep(0.01)

        def tile():
            with t.span("partition.tile"):
                time.sleep(0.03)

        workers = [threading.Thread(target=tile) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)
    tiles = [s for s in t.spans if s[0] == "partition.tile"]
    assert all(s[3] == 0 and s[4] == 0 for s in tiles)  # parent passed to pool threads
    rows, wall = tracing.self_time_table(t.spans)
    assert sum(r["self_s"] for r in rows) == pytest.approx(wall)
    tile_self = next(r["self_s"] for r in rows if r["name"] == "partition.tile")
    assert tile_self < sum((s[2] - s[1]) / 1e9 for s in tiles)  # overlap split, not doubled
