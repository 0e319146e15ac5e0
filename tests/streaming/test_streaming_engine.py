"""Streaming engine correctness: batch equivalence and window edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments import calibrate_eps
from repro.data.stream import drift_blob_stream, make_stream
from repro.data.synthetic import make_blobs
from repro.dbscan.rt_dbscan import rt_dbscan
from repro.metrics.agreement import compare_results
from repro.metrics.ari import adjusted_rand_index
from repro.streaming import RefitPolicy, StreamingRTDBSCAN, feed_capacity


def _blobs(n: int, seed: int, centers: int = 5, std: float = 0.2):
    pts, _ = make_blobs(n, centers=centers, std=std, seed=seed)
    return pts


class TestBatchEquivalence:
    """No-eviction feeds must reproduce the batch labelling exactly."""

    def test_single_chunk_equals_batch_labels(self):
        pts = _blobs(800, seed=11)
        batch = rt_dbscan(pts, eps=0.3, min_pts=5)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        update = engine.update(pts)
        assert np.array_equal(update.labels, batch.labels)
        assert np.array_equal(update.core_mask, batch.core_mask)
        assert adjusted_rand_index(update.labels, batch.labels) == 1.0

    @pytest.mark.parametrize("seed,chunk", [(3, 100), (7, 137), (21, 400)])
    def test_chunked_feed_matches_batch(self, seed, chunk):
        pts = _blobs(800, seed=seed)
        batch = rt_dbscan(pts, eps=0.3, min_pts=5)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        last = None
        for lo in range(0, pts.shape[0], chunk):
            last = engine.update(pts[lo : lo + chunk])
        assert last is not None
        assert np.array_equal(last.labels, batch.labels)
        assert adjusted_rand_index(last.labels, batch.labels) == 1.0
        # The cached neighbour counts must match batch stage 1 exactly.
        assert np.array_equal(engine.result().neighbor_counts, batch.neighbor_counts)

    def test_result_is_dbscan_equivalent_to_batch(self):
        pts = _blobs(600, seed=5, centers=4)
        engine = StreamingRTDBSCAN(eps=0.35, min_pts=4)
        for lo in range(0, 600, 200):
            engine.update(pts[lo : lo + 200])
        batch = rt_dbscan(pts, eps=0.35, min_pts=4)
        report = compare_results(batch, engine.result(), points=pts)
        assert report.equivalent, report.as_dict()


class TestSlidingWindow:
    def test_window_respected_and_oldest_evicted(self):
        pts = _blobs(500, seed=9)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=200)
        for lo in range(0, 500, 100):
            update = engine.update(pts[lo : lo + 100])
        assert update.window_size == 200
        # The window holds exactly the newest 200 points, in arrival order.
        assert np.array_equal(update.window_arrivals, np.arange(300, 500))
        assert np.allclose(np.asarray(engine.window_points)[:, :2], pts[300:])

    @pytest.mark.parametrize("seed", [1, 13])
    @pytest.mark.parametrize("stream", ["drift-blobs", "burst-hotspots", "ngsim-replay"])
    @pytest.mark.parametrize("mode", ["refit", "rebuild"])
    def test_every_window_identical_to_batch_on_window(self, mode, stream, seed):
        """After each slide, labels and core flags equal batch RT-DBSCAN's."""
        chunks = list(make_stream(stream, 10, 120, seed=seed))
        eps = calibrate_eps(np.vstack(chunks[:3]), 4, 0.30)
        engine = StreamingRTDBSCAN(eps=eps, min_pts=4, window=360, policy=RefitPolicy(mode=mode))
        actions = set()
        for chunk in chunks:
            update = engine.update(chunk)
            actions.add(update.accel_action)
            batch = rt_dbscan(np.asarray(engine.window_points), eps=eps, min_pts=4)
            assert np.array_equal(update.labels, batch.labels)
            assert np.array_equal(update.core_mask, batch.core_mask)
        assert mode in actions

    def test_eviction_that_splits_a_cluster(self):
        # A --- bridge --- B along a line; evicting the bridge must split
        # the single chain cluster into two.
        A = np.column_stack([np.linspace(0.0, 2.0, 9), np.zeros(9)])
        bridge = np.column_stack([np.linspace(2.5, 4.5, 5), np.zeros(5)])
        B = np.column_stack([np.linspace(5.0, 7.0, 9), np.zeros(9)])
        engine = StreamingRTDBSCAN(eps=0.6, min_pts=2, window=18, initial_capacity=32)
        engine.update(bridge)
        joined = engine.update(A)
        assert joined.num_clusters == 1  # A + bridge form one chain
        split = engine.update(B)  # bridge (oldest) evicted
        assert split.num_evicted == 5
        assert split.reclustered
        assert split.num_clusters == 2
        window_pts = np.asarray(engine.window_points)
        batch = rt_dbscan(window_pts, eps=0.6, min_pts=2)
        assert np.array_equal(split.labels, batch.labels)

    def test_chunk_larger_than_window_keeps_newest_points(self):
        pts = _blobs(300, seed=2)
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=100)
        update = engine.update(pts)
        assert update.window_size == 100
        assert np.allclose(np.asarray(engine.window_points)[:, :2], pts[200:])


class TestEdgeCases:
    def test_empty_engine_has_empty_window(self):
        engine = StreamingRTDBSCAN(eps=0.5, min_pts=3)
        assert engine.window_size == 0
        result = engine.result()
        assert result.labels.shape == (0,)
        assert result.num_clusters == 0

    def test_empty_chunk_is_a_noop(self):
        engine = StreamingRTDBSCAN(eps=0.5, min_pts=3)
        update = engine.update(np.empty((0, 2)))
        assert update.window_size == 0
        assert update.accel_action == "none"
        pts = _blobs(200, seed=4)
        before = engine.update(pts)
        after = engine.update(np.empty((0, 2)))
        assert np.array_equal(before.labels, after.labels)
        assert after.num_new == 0 and after.num_evicted == 0

    def test_duplicate_points_across_chunks(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 4.0, size=(250, 2))
        engine = StreamingRTDBSCAN(eps=0.35, min_pts=4)
        engine.update(pts)
        update = engine.update(pts)  # every point arrives a second time
        batch = rt_dbscan(np.vstack([pts, pts]), eps=0.35, min_pts=4)
        assert np.array_equal(update.labels, batch.labels)
        assert adjusted_rand_index(update.labels, batch.labels) == 1.0

    def test_promotion_across_chunks(self):
        # Each chunk alone is too sparse to form cores; together they do.
        base = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        extra = np.array([[0.0, 0.1], [0.1, 0.1], [6.0, 6.0]])
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=3)
        first = engine.update(base)
        assert first.num_clusters == 0
        second = engine.update(extra)
        batch = rt_dbscan(np.vstack([base, extra]), eps=0.3, min_pts=3)
        assert np.array_equal(second.labels, batch.labels)
        assert second.num_clusters == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StreamingRTDBSCAN(eps=-1.0, min_pts=3)
        with pytest.raises(ValueError):
            StreamingRTDBSCAN(eps=0.5, min_pts=0)
        with pytest.raises(ValueError):
            StreamingRTDBSCAN(eps=0.5, min_pts=3, window=0)
        with pytest.raises(ValueError):
            RefitPolicy(mode="bogus")


class TestMaintenancePolicy:
    def test_auto_policy_refits_for_small_updates(self):
        pts = _blobs(1200, seed=6)
        engine = StreamingRTDBSCAN(
            eps=0.3, min_pts=5, window=1000, initial_capacity=1100,
            policy=RefitPolicy(mode="auto"),
        )
        for lo in range(0, 1200, 60):
            engine.update(pts[lo : lo + 60])
        scene = engine.scene.summary()
        assert scene["num_refits"] > scene["num_builds"]
        assert engine.total_counts.bvh_refit_prims > 0

    def test_refit_and_rebuild_modes_agree_on_labels(self):
        pts = _blobs(600, seed=8)
        results = {}
        for mode in ("auto", "rebuild"):
            engine = StreamingRTDBSCAN(
                eps=0.3, min_pts=5, window=500, initial_capacity=600,
                policy=RefitPolicy(mode=mode),
            )
            for lo in range(0, 600, 100):
                update = engine.update(pts[lo : lo + 100])
            results[mode] = (update.labels, engine.summary())
        labels_auto, summary_auto = results["auto"]
        labels_rebuild, summary_rebuild = results["rebuild"]
        assert np.array_equal(labels_auto, labels_rebuild)
        # Identical clustering, cheaper maintenance on the refit path.
        assert (
            summary_auto["total_simulated_seconds"]
            < summary_rebuild["total_simulated_seconds"]
        )

    def test_capacity_growth_forces_rebuild(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, initial_capacity=64)
        first = engine.update(_blobs(60, seed=1))
        assert first.accel_action == "rebuild"
        second = engine.update(_blobs(300, seed=2))  # overflows capacity 64
        assert second.accel_action == "rebuild"
        assert engine.scene.capacity >= 360

    def test_feed_capacity_pre_sizes_the_slot_buffer(self):
        """A buffer sized by feed_capacity never grows, so only the first
        commit is a build."""
        feed = _blobs(900, seed=3)
        chunks = [feed[lo : lo + 300] for lo in range(0, 900, 300)]
        engine = StreamingRTDBSCAN(
            0.3, 5, initial_capacity=feed_capacity(900, None, 300),
            policy=RefitPolicy(mode="refit"),
        )
        assert engine.scene.capacity == 900
        for chunk in chunks:
            engine.update(chunk)
        assert engine.scene.num_builds == 1

        # Same labels as an ordinary unbounded engine over the same chunks.
        plain = StreamingRTDBSCAN(eps=0.3, min_pts=5, initial_capacity=256)
        for chunk in chunks:
            plain.update(chunk)
        np.testing.assert_array_equal(
            engine.result().labels, plain.result().labels
        )

    def test_window_never_holds_more_slots_than_the_window(self):
        """Eviction runs before insertion, so for any chunk size from 1 to
        twice the window the slot high-water mark stays within the window:
        a buffer of exactly ``window`` slots never grows."""
        rng = np.random.default_rng(2024)
        for _ in range(40):
            window = int(rng.integers(5, 60))
            sizes = rng.integers(1, 2 * window + 1, size=int(rng.integers(2, 8)))
            feed = rng.uniform(0.0, 2.0, size=(int(sizes.sum()), 2))
            engine = StreamingRTDBSCAN(0.3, 3, window=window, initial_capacity=window)
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                engine.update(feed[lo:hi])
                assert engine.scene._high_water <= window
            assert engine.scene._high_water == min(window, feed.shape[0])
            assert engine.scene.capacity == window


class TestLifecycle:
    """release()/snapshot()/context-manager — the serving layer's hooks."""

    def test_release_is_idempotent_and_counted(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        engine.update(_blobs(200, seed=2))
        assert not engine.released
        engine.release()
        engine.release()
        assert engine.released
        assert engine.num_releases == 1

    def test_context_manager_releases_on_exit(self):
        with StreamingRTDBSCAN(eps=0.3, min_pts=5) as engine:
            engine.update(_blobs(150, seed=6))
            assert not engine.released
        assert engine.released
        assert engine.num_releases == 1

    def test_reingest_after_release_revives_engine(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5)
        engine.update(_blobs(150, seed=6))
        engine.release()
        engine.update(_blobs(150, seed=7))
        assert not engine.released
        engine.release()
        assert engine.num_releases == 2

    @pytest.mark.parametrize("backend", ["rt", "grid", "kdtree", "brute"])
    def test_windowed_update_after_release_rebuilds_the_scene(self, backend):
        """The eviction query runs before the commit, so it rebuilds the scene itself."""
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=400, backend=backend)
        for seed in range(3):
            engine.update(_blobs(200, seed=seed))
        engine.release()
        update = engine.update(_blobs(200, seed=3))
        assert update.num_evicted == 200 and not engine.released
        ref = rt_dbscan(engine.window_points, eps=0.3, min_pts=5)
        np.testing.assert_array_equal(update.labels, ref.labels)
        np.testing.assert_array_equal(update.core_mask, ref.core_mask)
        # The evict phase pays for the rebuild's launch and its own query's.
        assert update.report.phase("evict").counts.kernel_launches == 2
        engine.release()
        assert engine.num_releases == 2

    def test_snapshot_mirrors_result(self):
        engine = StreamingRTDBSCAN(eps=0.3, min_pts=5, window=120)
        for chunk in drift_blob_stream(3, 60, seed=8):
            engine.update(chunk)
        snap = engine.snapshot()
        result = engine.result()
        assert snap["window_size"] == 120
        assert snap["labels"] == result.labels.tolist()
        assert snap["core_mask"] == result.core_mask.tolist()
        assert snap["window_arrivals"] == result.extra["window_arrivals"].tolist()
        assert snap["num_clusters"] == result.num_clusters
        assert snap["num_noise"] == result.num_noise
        assert snap["released"] is False
        assert snap["summary"]["num_updates"] == 3
