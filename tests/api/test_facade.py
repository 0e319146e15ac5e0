"""Tests for the one-call ``repro.cluster`` facade.

The acceptance bar: ``repro.cluster(points, algo=a)`` must produce labels
identical to the legacy constructor path for every registered algorithm.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api.registry import list_algorithms
from repro.data.synthetic import make_blobs
from repro.perf.cost_model import OpCounts

EPS, MIN_PTS = 0.4, 5


@pytest.fixture(scope="module")
def blobs():
    pts, _ = make_blobs(400, centers=3, std=0.2, seed=7)
    return pts


def _legacy_labels(algo: str, points: np.ndarray) -> np.ndarray:
    """The pre-registry construction path for every algorithm."""
    if algo == "rt-dbscan":
        return repro.RTDBSCAN(eps=EPS, min_pts=MIN_PTS).fit(points).labels
    if algo == "rt-dbscan-triangles":
        return repro.RTDBSCAN(eps=EPS, min_pts=MIN_PTS, triangle_mode=True).fit(points).labels
    if algo == "fdbscan":
        return repro.FDBSCAN(eps=EPS, min_pts=MIN_PTS).fit(points).labels
    if algo == "fdbscan-earlyexit":
        return repro.FDBSCAN(eps=EPS, min_pts=MIN_PTS, early_exit=True).fit(points).labels
    if algo == "g-dbscan":
        return repro.GDBSCAN(eps=EPS, min_pts=MIN_PTS).fit(points).labels
    if algo == "cuda-dclust+":
        return repro.CUDADClustPlus(eps=EPS, min_pts=MIN_PTS).fit(points).labels
    if algo == "classic":
        return repro.classic_dbscan(points, EPS, MIN_PTS).labels
    if algo == "streaming-rt-dbscan":
        engine = repro.StreamingRTDBSCAN(eps=EPS, min_pts=MIN_PTS)
        engine.update(points)
        return engine.result().labels
    if algo == "rt-dbscan-tiled":
        return repro.TiledRTDBSCAN(eps=EPS, min_pts=MIN_PTS).fit(points).labels
    raise AssertionError(f"no legacy path recorded for {algo!r} — extend this test")


class TestFacadeEquivalence:
    def test_every_registered_algorithm_has_a_legacy_path(self):
        # Guards the test itself: a newly registered algorithm must be added
        # to _legacy_labels for the equivalence sweep below to cover it.
        for algo in list_algorithms():
            assert algo in {
                "rt-dbscan", "rt-dbscan-triangles", "rt-dbscan-tiled", "fdbscan",
                "fdbscan-earlyexit", "g-dbscan", "cuda-dclust+", "classic",
                "streaming-rt-dbscan",
            }

    @pytest.mark.parametrize("algo", [
        "rt-dbscan", "rt-dbscan-triangles", "rt-dbscan-tiled", "fdbscan",
        "fdbscan-earlyexit", "g-dbscan", "cuda-dclust+", "classic",
        "streaming-rt-dbscan",
    ])
    def test_facade_matches_legacy_constructor(self, blobs, algo):
        got = repro.cluster(blobs, algo, eps=EPS, min_pts=MIN_PTS)
        np.testing.assert_array_equal(got.labels, _legacy_labels(algo, blobs))

    @pytest.mark.parametrize("backend", ["rt", "grid", "kdtree", "brute"])
    def test_facade_backend_kwarg(self, blobs, backend):
        ref = repro.cluster(blobs, eps=EPS, min_pts=MIN_PTS)
        got = repro.cluster(blobs, eps=EPS, min_pts=MIN_PTS, backend=backend)
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.extra["backend"] == backend


class TestFacadeBehaviour:
    def test_auto_eps_calibration(self, blobs):
        result = repro.cluster(blobs, min_pts=5)
        assert result.params.eps > 0
        assert result.num_clusters >= 1

    def test_result_type_and_report(self, blobs):
        result = repro.cluster(blobs, eps=EPS, min_pts=MIN_PTS)
        assert isinstance(result, repro.DBSCANResult)
        assert result.report is not None
        assert "bvh_build" in result.report.breakdown()

    def test_device_is_charged(self, blobs):
        device = repro.RTDevice(has_rt_cores=False, name="facade-device")
        result = repro.cluster(blobs, eps=EPS, min_pts=MIN_PTS, device=device)
        assert result.report.metadata["device"] == "facade-device"
        total = OpCounts.sum(p.counts for p in result.report.phases)
        assert total.sm_node_visits > 0 and total.rt_node_visits == 0

    def test_unknown_algorithm_raises(self, blobs):
        with pytest.raises(KeyError, match="available"):
            repro.cluster(blobs, "hdbscan", eps=EPS, min_pts=MIN_PTS)

    def test_partial_fit_through_registry(self, blobs):
        spec = repro.ClustererSpec(algo="streaming-rt-dbscan", eps=EPS, min_pts=MIN_PTS)
        engine = repro.make_clusterer(spec)
        for chunk in np.array_split(blobs, 4):
            engine.partial_fit(chunk)
        batch = repro.rt_dbscan(blobs, eps=EPS, min_pts=MIN_PTS)
        np.testing.assert_array_equal(engine.result().labels, batch.labels)
