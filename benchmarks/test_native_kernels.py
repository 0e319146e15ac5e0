"""Native kernel tier gates: tier parity, speedup floors and thread scaling.

Unlike the paper-reproduction benchmarks in this directory (which model the
paper's *simulated* GPU timings), these measure real wall-clock on the host.
Every gated cell fits the same ``blobs`` input (seed 2023, ``min_pts`` 10, ε
at the 0.30 k-distance quantile) on the ladder 12,500 / 25,000 / 50,000
points, each multiplied by ``REPRO_BENCH_SCALE`` (default 0.5).  Each fit
runs ``ROUNDS`` times and a cell's wall time is the best (minimum) of its
rounds; both sides of every comparison use that statistic over the same
number of rounds.  The gates:

* **Tier parity** (always): every paired numpy/native cell of rt, grid,
  kdtree and brute has identical labels, core mask, per-phase ``OpCounts``
  and simulated seconds.
* **Speedup floors** at ≥ 50,000 points: native is ≥ 2× numpy for rt, grid
  and brute, and ≥ 1.2× for kdtree, whose fit includes the tier-independent
  Python-side tree build.
* **The isolated ``confirm_pairs`` microbench**: its output is identical to
  the numpy confirm's and it is ≥ 3× faster at any size.  The lsh backend's
  end-to-end wall is dominated by tier-independent candidate generation, so
  its compiled confirm pass is timed alone.
* **Thread scaling** over 1, 2, 4 and the host's maximum thread count: every
  cell reproduces the 1-thread bytes on all four backends, and on hosts with
  ≥ 4 cores the best multi-thread grid and brute cells are ≥ 2× the 1-thread
  cell.  Those two run at ≥ 50,000 points whatever the scale, so the floor
  always has a cell to bind on.

Excluded from tier-1 (and plain ``pytest`` runs): wall-clock gates are
load-sensitive and need the compiled tier.  Opt in with::

    REPRO_NATIVE_BENCH=1 REPRO_BENCH_SCALE=1 python -m pytest benchmarks/test_native_kernels.py -s

Once opted in, a missing native tier fails the module instead of skipping
it, so a run whose tier silently fell back to numpy cannot pass.  At scale 1
the 50,000-point brute cell takes over two minutes on a 2-core host, so
pytest's ``faulthandler_timeout`` prints a stack dump there; the run goes on.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.dbscan.rt_dbscan import RTDBSCAN

if os.environ.get("REPRO_NATIVE_BENCH", "") != "1":
    pytest.skip(
        "native tier gates are opt-in: set REPRO_NATIVE_BENCH=1",
        allow_module_level=True,
    )

from repro.native import dispatch

if not dispatch.available():
    pytest.fail(
        "REPRO_NATIVE_BENCH=1 but the native kernel tier is unavailable: "
        f"{dispatch.status()['fallback_reason']}",
        pytrace=False,
    )

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
SEED = 2023
MIN_PTS = 10
EPS_QUANTILE = 0.30
LADDER = tuple(max(1_000, round(n * SCALE)) for n in (12_500, 25_000, 50_000))
BACKENDS = ("rt", "grid", "kdtree", "brute")
ROUNDS = 3

#: Speedup floors bind only on cells this large: smaller ones are dominated
#: by warm-up and fixed per-fit costs.
GATE_MIN_N = 50_000
MIN_SPEEDUP = {"rt": 2.0, "grid": 2.0, "brute": 2.0, "kdtree": 1.2}
CONFIRM_MIN_SPEEDUP = 3.0
#: The multi-thread floor needs enough cores to be attainable.
THREADS_GATE_MIN_CORES = 4
THREAD_MIN_SPEEDUP = {"grid": 2.0, "brute": 2.0}


@pytest.fixture(scope="module")
def problem():
    """``problem(n)`` -> the ``n``-point blobs input and its calibrated ε."""
    cache: dict[int, tuple[np.ndarray, float]] = {}

    def get(n: int) -> tuple[np.ndarray, float]:
        if n not in cache:
            pts = generate("blobs", n, seed=SEED)
            cache[n] = (pts, calibrate_eps(pts, MIN_PTS, EPS_QUANTILE))
        return cache[n]

    return get


def best_wall(fn, rounds):
    """Call ``fn`` ``rounds`` times; its last result and its fastest wall time."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def timed_fit(pts, eps, backend, *, native, threads=None):
    clusterer = RTDBSCAN(
        eps=eps, min_pts=MIN_PTS, backend=backend, native=native, native_threads=threads
    )
    result, wall = best_wall(lambda: clusterer.fit(pts), ROUNDS)
    assert result.extra["kernel_tier"] == ("native" if native else "numpy")
    return result, wall


def assert_identical(a, b):
    """Same labels, core mask, per-phase op counts and simulated seconds."""
    assert a.labels.dtype == b.labels.dtype
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.core_mask, b.core_mask)
    assert [(p.name, p.counts.as_dict()) for p in a.report.phases] == [
        (p.name, p.counts.as_dict()) for p in b.report.phases
    ]
    assert a.report.total_simulated_seconds == b.report.total_simulated_seconds


@pytest.mark.parametrize("n", LADDER)
@pytest.mark.parametrize("backend", BACKENDS)
def test_tiers_match_and_native_is_faster(problem, backend, n):
    pts, eps = problem(n)
    numpy_r, numpy_s = timed_fit(pts, eps, backend, native=False)
    native_r, native_s = timed_fit(pts, eps, backend, native=True)
    assert_identical(numpy_r, native_r)
    speedup = numpy_s / native_s
    print(f"\n{backend}@{n}: numpy {numpy_s:.3f} s, native {native_s:.3f} s, {speedup:.2f}x")
    if n >= GATE_MIN_N:
        assert speedup >= MIN_SPEEDUP[backend]


def test_confirm_pairs_microbench(problem):
    """The lsh exact-distance confirm alone, on a deduped pair stream like lsh's."""
    n = LADDER[-1]
    points, eps = problem(n)
    nk = dispatch.kernels()
    rng = np.random.default_rng(SEED)
    r2 = eps * eps
    nq = min(2048, n)
    per_q = min(64, n)
    points = np.ascontiguousarray(points)
    block = np.ascontiguousarray(points[:nq])
    rep = np.repeat(np.arange(nq, dtype=np.intp), per_q)
    pair_key = np.unique(rep.astype(np.int64) * n + rng.integers(0, n, size=nq * per_q))
    rep_q = (pair_key // n).astype(np.intp)
    cand = (pair_key % n).astype(np.intp)
    cands_i64 = np.ascontiguousarray(cand, dtype=np.int64)
    pair_indptr = np.ascontiguousarray(np.searchsorted(rep_q, np.arange(nq + 1)), dtype=np.int64)

    def numpy_confirm():
        d = block[rep_q] - points[cand]
        hit = np.einsum("ij,ij->i", d, d) <= r2
        hit &= rep_q != cand
        return np.bincount(rep_q[hit], minlength=nq).astype(np.int64), cand[hit]

    def native_confirm():
        rc = np.zeros(nq, dtype=np.int64)
        assert nk.confirm_pairs(block, 0, points, cands_i64, pair_indptr, r2, True, row_counts=rc)
        indptr = np.zeros(nq + 1, dtype=np.int64)
        np.cumsum(rc, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.intp)
        nk.confirm_pairs(
            block, 0, points, cands_i64, pair_indptr, r2, True, indptr=indptr, indices=indices
        )
        return rc, indices

    (rc_np, ix_np), numpy_s = best_wall(numpy_confirm, 9)
    (rc_nat, ix_nat), native_s = best_wall(native_confirm, 9)
    assert np.array_equal(rc_np, rc_nat)
    assert np.array_equal(ix_np.astype(np.int64), ix_nat.astype(np.int64))
    speedup = numpy_s / native_s
    print(f"\nconfirm_pairs: {rep_q.size} pairs, numpy {numpy_s * 1e3:.2f} ms, "
          f"native {native_s * 1e3:.2f} ms, {speedup:.2f}x")
    assert speedup >= CONFIRM_MIN_SPEEDUP


@pytest.mark.parametrize("backend", BACKENDS)
def test_thread_count_is_invisible_and_scales(problem, backend):
    nk = dispatch.kernels()
    max_threads = nk.openmp_max_threads() if nk.has_openmp else 1
    axis = sorted({t for t in (1, 2, 4, max_threads) if 1 <= t <= max_threads})
    cores = os.cpu_count() or 1
    gated = cores >= THREADS_GATE_MIN_CORES and backend in THREAD_MIN_SPEEDUP
    n = max(LADDER[-1], GATE_MIN_N) if gated else LADDER[-1]
    pts, eps = problem(n)
    cells = {t: timed_fit(pts, eps, backend, native=True, threads=t) for t in axis}
    base, base_s = cells[1]
    for t, (result, wall) in cells.items():
        assert_identical(base, result)
        print(f"\n{backend}@{n} x{t} threads: {wall:.3f} s, {base_s / wall:.2f}x vs 1 thread")
    if gated:
        multi = [base_s / wall for t, (_, wall) in cells.items() if t >= 2]
        assert multi, f"no multi-thread cell despite {cores} cores"
        assert max(multi) >= THREAD_MIN_SPEEDUP[backend]


@pytest.mark.parametrize("native", (False, True), ids=("numpy", "native"))
class TestKernelMicrobench:
    def test_union_find_formation(self, benchmark, native):
        """Cluster-formation union pass, isolated via a precomputed CSR."""
        from repro.api.registry import make_backend
        from repro.dbscan.disjoint_set import ParallelDisjointSet

        pts = generate("ngsim", int(20_000 * SCALE), seed=7)
        eps = calibrate_eps(pts, MIN_PTS, 0.25)
        finder = make_backend("grid", pts, eps)
        try:
            indptr, indices, _ = finder.neighbor_csr()
        finally:
            finder.release()
        counts = np.diff(indptr)
        core = counts >= MIN_PTS
        # Core-to-core edges, exactly as the formation pass emits them.
        src = np.repeat(np.arange(pts.shape[0]), counts)
        keep = core[src] & core[indices]
        a, b = src[keep], indices[keep]

        def unions():
            ds = ParallelDisjointSet(pts.shape[0])
            with dispatch.override(native):
                ds.union_edges(a, b)
            return ds

        benchmark.pedantic(unions, rounds=3, iterations=1)
