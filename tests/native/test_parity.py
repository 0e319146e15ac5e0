"""Native-vs-numpy parity matrix.

The native tier's whole contract is *byte identity*: same CSR adjacency,
same labels, same charged operation counts — only wall-clock changes.  This
module pins that contract across backends (grid / brute / rt), datasets
(Gaussian blobs and the paper's NGSIM trajectory distribution) and pipelines
(monolithic, tiled, streaming), plus the raw CSR surface of every native
backend.

Everything here skips when the compiled tier is unavailable (e.g. the CI
no-compiler job): without a native tier there is nothing to compare, and the
pure-numpy suite already covers the fallback behaviour.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api.registry import make_backend
from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.data.stream import drift_blob_stream
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.geometry.transforms import ensure_points3d
from repro.native import dispatch
from repro.neighbors.rt_find import RTNeighborFinder
from repro.partition.tiled import TiledRTDBSCAN
from repro.streaming import RefitPolicy, StreamingScene
from repro.streaming.engine import StreamingRTDBSCAN

#: Every registered backend is native-capable and valid in every pipeline.
NATIVE_BACKENDS = ("grid", "brute", "rt", "kdtree")
MIN_PTS = 8

pytestmark = pytest.mark.skipif(
    not dispatch.available(), reason="native kernel tier unavailable"
)


@pytest.fixture(scope="module", params=("blobs", "ngsim"))
def dataset(request):
    pts = generate(request.param, 900, seed=31)
    eps = calibrate_eps(pts, MIN_PTS, 0.30)
    return request.param, pts, eps


def assert_counts_equal(report_a, report_b):
    """Charged op counts must match phase-for-phase, field-for-field."""
    assert len(report_a.phases) == len(report_b.phases)
    for pa, pb in zip(report_a.phases, report_b.phases):
        assert pa.name == pb.name
        assert pa.counts.as_dict() == pb.counts.as_dict(), pa.name


def assert_results_identical(a, b):
    assert a.labels.dtype == b.labels.dtype
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.core_mask, b.core_mask)
    assert_counts_equal(a.report, b.report)
    # Identical counts through an identical cost model ⇒ identical simulated
    # time; assert it anyway so a cost-model bypass cannot slip through.
    assert a.report.total_simulated_seconds == b.report.total_simulated_seconds


def record_kernel_calls(monkeypatch) -> list[tuple[int, int]]:
    """Wrap every compiled kernel to log ``(thread id, resolved threads)``."""
    calls = []
    for name in dispatch.KERNEL_SLOTS:
        def counting(self, *args, _fn=getattr(dispatch.NativeKernels, name), **kwargs):
            calls.append((threading.get_ident(), self.resolve_threads()))
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(dispatch.NativeKernels, name, counting)
    return calls


class TestMonolithicParity:
    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_labels_and_counts_identical(self, dataset, backend):
        _, pts, eps = dataset
        numpy_r = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=backend, native=False).fit(pts)
        native_r = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=backend, native=True).fit(pts)
        assert numpy_r.extra["kernel_tier"] == "numpy"
        assert native_r.extra["kernel_tier"] == "native"
        assert_results_identical(numpy_r, native_r)


class TestTiledParity:
    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_labels_and_counts_identical(self, dataset, backend):
        _, pts, eps = dataset
        fits = {}
        for native in (False, True):
            fits[native] = TiledRTDBSCAN(
                eps=eps, min_pts=MIN_PTS, backend=backend, tiles=4, native=native
            ).fit(pts)
        assert fits[True].extra["kernel_tier"] == "native"
        assert_results_identical(fits[False], fits[True])

    def test_worker_threads_carry_override(self, dataset, monkeypatch):
        """Tile worker threads honour the parent's native= and native_threads=.

        Tile jobs carry no tier flags: the overrides pushed around ``fit``
        reach the pool threads through the context ``ParallelMap`` copies
        into them.  Every compiled-kernel call is recorded with its thread
        and resolved worker count; 3 OpenMP threads differs from the auto
        default on any core count but 3.
        """
        _, pts, eps = dataset
        calls = record_kernel_calls(monkeypatch)
        expected_threads = 3 if dispatch.kernels().has_openmp else 1
        fits = {}
        for native in (False, True):
            calls.clear()
            fits[native] = TiledRTDBSCAN(
                eps=eps, min_pts=MIN_PTS, backend="grid", tiles=4,
                workers=2, native=native, native_threads=3,
            ).fit(pts)
            assert bool(calls) is native
            assert all(resolved == expected_threads for _, resolved in calls)
        # The tile kernels ran on pool threads, not only in the calling thread.
        assert {ident for ident, _ in calls} - {threading.get_ident()}
        assert_results_identical(fits[False], fits[True])


class TestConcurrentFits:
    def test_threads_keep_their_own_tier(self, dataset, monkeypatch):
        """Concurrent fits asking for different tiers each get their own.

        Both fits wait for each other at the backend build, inside their
        ``native=`` scope and before any kernel runs, so each override is
        live while the other fit dispatches its kernels.
        """
        # The package re-exports the ``rt_dbscan`` function under its
        # module's name, so the module is reached through ``sys.modules``.
        rt_module = sys.modules[RTDBSCAN.__module__]
        _, pts, eps = dataset
        calls = record_kernel_calls(monkeypatch)
        solo = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend="rt", native=True).fit(pts)
        calls_per_fit = len(calls)
        assert calls_per_fit > 0
        calls.clear()

        barrier = threading.Barrier(2, timeout=60)

        def make_backend_in_step(*args, _fn=rt_module.make_backend, **kwargs):
            barrier.wait()
            return _fn(*args, **kwargs)

        monkeypatch.setattr(rt_module, "make_backend", make_backend_in_step)
        fits = {}

        def fit(native):
            clusterer = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend="rt", native=native)
            fits[native] = (threading.get_ident(), clusterer.fit(pts))

        threads = [threading.Thread(target=fit, args=(native,)) for native in (True, False)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert set(fits) == {True, False}
        for native, (ident, result) in fits.items():
            assert result.extra["kernel_tier"] == ("native" if native else "numpy")
            made = sum(1 for caller, _ in calls if caller == ident)
            assert made == (calls_per_fit if native else 0)
            assert_results_identical(solo, result)


class TestStreamingParity:
    def test_chunked_ingest_identical(self, dataset):
        # 100-point chunks against a 600-point window: once the window is
        # full, steady updates refit, so traversal parity is also checked on
        # refit trees whose leaves hold recycled slots.
        _, pts, eps = dataset
        results = {}
        for native in (False, True):
            engine = StreamingRTDBSCAN(
                eps=eps, min_pts=MIN_PTS, window=600, native=native
            )
            updates = [
                engine.update(pts[lo : lo + 100]) for lo in range(0, pts.shape[0], 100)
            ]
            results[native] = (updates, engine.result())
        assert "refit" in {u.accel_action for u in results[True][0]}
        for ua, ub in zip(results[False][0], results[True][0]):
            assert ua.accel_action == ub.accel_action
            assert np.array_equal(ua.labels, ub.labels)
            assert np.array_equal(ua.core_mask, ub.core_mask)
            assert_counts_equal(ua.report, ub.report)
        ra, rb = results[False][1], results[True][1]
        assert np.array_equal(ra.labels, rb.labels)
        assert ra.extra["kernel_tier"] == "numpy"
        assert rb.extra["kernel_tier"] == "native"


class TestBackendCsrParity:
    """The raw neighbour surface: byte-identical canonical CSR per backend."""

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_self_query_csr(self, dataset, backend):
        _, pts, eps = dataset
        per_tier = {}
        for native in (False, True):
            with dispatch.override(native):
                finder = make_backend(backend, pts, eps)
                try:
                    counts, cstats = finder.neighbor_counts()
                    indptr, indices, qstats = finder.neighbor_csr()
                finally:
                    finder.release()
            per_tier[native] = (counts, cstats, indptr, indices, qstats)
        c0, cs0, ip0, ix0, qs0 = per_tier[False]
        c1, cs1, ip1, ix1, qs1 = per_tier[True]
        assert np.array_equal(c0, c1)
        assert ip0.dtype == ip1.dtype and ip0.tobytes() == ip1.tobytes()
        assert ix0.dtype == ix1.dtype and ix0.tobytes() == ix1.tobytes()
        assert cs0.counts.as_dict() == cs1.counts.as_dict()
        assert qs0.counts.as_dict() == qs1.counts.as_dict()

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_external_query_csr(self, dataset, backend):
        _, pts, eps = dataset
        queries = pts[::3] + eps / 7.0  # off-lattice external query points
        per_tier = {}
        for native in (False, True):
            with dispatch.override(native):
                finder = make_backend(backend, pts, eps)
                try:
                    indptr, indices, stats = finder.neighbor_csr(queries)
                finally:
                    finder.release()
            per_tier[native] = (indptr, indices, stats)
        ip0, ix0, st0 = per_tier[False]
        ip1, ix1, st1 = per_tier[True]
        assert ip0.tobytes() == ip1.tobytes()
        assert ix0.tobytes() == ix1.tobytes()
        assert st0.counts.as_dict() == st1.counts.as_dict()


class TestSphereLaunchTier:
    """Every sphere launch path really runs the compiled ``bvh_sphere``.

    ``kernel_tier`` reports the tier that was active, not the kernels that
    ran, so a launch path that silently fell back to numpy would keep every
    parity test above green.  Counting the kernel's calls closes that gap:
    a count launch is one pass, a CSR launch a count pass plus a fill pass,
    and a CSR launch seeded with its rows' counts the fill pass alone.  The
    streaming engine seeds every query but the new points' own.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = dispatch.NativeKernels.bvh_sphere

        def counting(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(dispatch.NativeKernels, "bvh_sphere", counting)
        return calls

    @pytest.mark.parametrize("backend", ["rt", "kdtree"])
    @pytest.mark.parametrize("queries", ["dataset", "external"])
    def test_backend_launches(self, dataset, calls, backend, queries):
        _, pts, eps = dataset
        q = None if queries == "dataset" else pts[::3] + eps / 7.0
        finder = make_backend(backend, pts, eps)
        try:
            with dispatch.override(True):
                finder.neighbor_counts(q)
                assert len(calls) == 1
                finder.neighbor_csr(q)
                assert len(calls) == 3
            with dispatch.override(False):
                finder.neighbor_counts(q)
                finder.neighbor_csr(q)
                assert len(calls) == 3
        finally:
            finder.release()

    @pytest.mark.parametrize("backend", ["rt", "kdtree"])
    def test_seeded_rows_fill_is_one_pass(self, dataset, calls, backend):
        _, pts, eps = dataset
        finder = make_backend(backend, pts, eps)
        try:
            with dispatch.override(True):
                counts, _ = finder.neighbor_counts()
                rows = np.flatnonzero(counts >= MIN_PTS)
                finder.neighbor_csr(rows=rows, row_counts=counts[rows])
                finder.neighbor_csr(rows=rows[:0], row_counts=counts[:0])
        finally:
            finder.release()
        assert calls == [len(pts), rows.size]

    def test_fit_fills_only_the_core_rows(self, dataset, calls):
        """Two traversals per fit: stage 1 over every point, stage 2 over the cores."""
        _, pts, eps = dataset
        with dispatch.override(True):
            result = RTDBSCAN(eps=eps, min_pts=MIN_PTS).fit(pts)
        assert 0 < result.core_mask.sum() < len(pts)
        assert calls == [len(pts), int(result.core_mask.sum())]

    def test_tiled_fit_without_core_points_launches_stage_one_only(self, dataset, calls):
        _, pts, eps = dataset
        with dispatch.override(True):
            result = TiledRTDBSCAN(eps=eps, min_pts=len(pts), tiles=4).fit(pts)
        assert not result.core_mask.any()
        assert calls == [t["num_owned"] for t in result.extra["tiles"]]

    def test_streaming_scene_query(self, dataset, calls):
        _, pts, eps = dataset
        scene = StreamingScene(eps)
        slots = scene.add(ensure_points3d(pts))
        scene.commit(RefitPolicy())
        with dispatch.override(True):
            scene.query_csr(slots[:100])
            assert calls == [100, 100]
        with dispatch.override(False):
            scene.query_csr(slots[:100])
            assert len(calls) == 2
        scene.release()

    def test_seeded_streaming_scene_query_is_one_pass(self, dataset, calls):
        _, pts, eps = dataset
        scene = StreamingScene(eps)
        slots = scene.add(ensure_points3d(pts))
        scene.commit(RefitPolicy())
        with dispatch.override(False):
            indptr, hits, stats = scene.query_csr(slots[:100])
        with dispatch.override(True):
            seeded = scene.query_csr(slots[:100], row_counts=np.diff(indptr))
        scene.release()
        assert calls == [100]
        assert seeded[0].tobytes() == indptr.tobytes()
        assert seeded[1].tobytes() == hits.tobytes()
        assert seeded[2].counts.as_dict() == stats.counts.as_dict()

    def test_window_update_with_a_core_loss_is_four_launches(self, calls):
        """Evicted rows, new rows (count + fill), then the surviving cores."""
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=300, native=True)
        reclustered = 0
        for chunk in drift_blob_stream(6, 100, seed=8):
            calls.clear()
            update = engine.update(chunk)
            if update.num_evicted:
                assert update.reclustered
                reclustered += 1
                assert calls == [
                    update.num_evicted, update.num_new, update.num_new,
                    int(update.core_mask.sum()),
                ]
        assert reclustered == 3

    def test_promotion_only_update_is_three_launches(self, calls):
        """New rows (count + fill), then the promoted rows' seeded fill."""
        engine = StreamingRTDBSCAN(eps=0.5, min_pts=2, native=True)
        engine.update(np.array([[0.0, 0.0], [0.0, 0.1], [0.8, 0.0], [5.0, 5.0]]))
        assert calls == [4, 4]
        calls.clear()
        # The arrival reaches all three left-hand points and lifts the
        # twins at the origin to two neighbours each.
        update = engine.update(np.array([[0.4, 0.0]]))
        assert not update.reclustered
        assert update.core_mask.tolist() == [True, True, False, False, True]
        assert calls == [1, 1, 2]

    def test_triangle_mode_stays_on_numpy(self, dataset, calls):
        _, pts, eps = dataset
        finder = RTNeighborFinder(pts[:200], eps, triangle_mode=True)
        with dispatch.override(True):
            finder.neighbor_counts()
            finder.neighbor_csr()
            finder.neighbor_csr(pts[:20] + eps / 7.0)
        finder.release()
        assert calls == []


class TestStreamingKernelCalls:
    """Kernel calls per window update, on the rt scene and every host scene.

    Window 300 over six 100-point drift-blob chunks at ε 0.3 and ``min_pts``
    5: the first update only inserts, the next two promote existing points,
    and the last three evict core points and recluster the window.  Every
    scene seeds each query but the new points' own, so a promotion-only
    update is the new rows' count and fill plus the promoted rows' fill, and
    a core-loss update adds the evicted rows' fill and the surviving cores'
    fill to the new rows' two passes.  ``brute`` keeps its count pass before
    every fill, as the oracle.
    """

    @pytest.mark.parametrize("backend, kernel, per_update", [
        ("rt", "bvh_sphere", [2, 3, 3, 4, 4, 4]),
        ("grid", "grid_scan", [2, 3, 3, 4, 4, 4]),
        ("kdtree", "bvh_sphere", [2, 3, 3, 4, 4, 4]),
        ("brute", "brute_block", [2, 4, 4, 6, 6, 6]),
    ])
    def test_calls_per_update(self, monkeypatch, backend, kernel, per_update):
        calls = []
        original = getattr(dispatch.NativeKernels, kernel)

        def counting(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(dispatch.NativeKernels, kernel, counting)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=300, backend=backend, native=True)
        made, reclustered, promoted = [], [], []
        core_of: dict[int, bool] = {}
        for chunk in drift_blob_stream(6, 100, seed=8):
            calls.clear()
            update = engine.update(chunk)
            made.append(len(calls))
            reclustered.append(update.reclustered)
            now = dict(zip(update.window_arrivals.tolist(), update.core_mask.tolist()))
            promoted.append(sum(now[a] and not was for a, was in core_of.items() if a in now))
            core_of = now
        assert reclustered == [False] * 3 + [True] * 3
        assert promoted[0] == 0 and min(promoted[1:3]) > 0
        assert made == per_update
