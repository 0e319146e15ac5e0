"""Tests for RT-DBSCAN (the paper's Algorithm 3)."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dbscan.classic import classic_dbscan
from repro.dbscan.rt_dbscan import RTDBSCAN, rt_dbscan
from repro.data.synthetic import make_blobs, make_moons, make_rings
from repro.metrics.agreement import compare_results
from repro.perf.cost_model import OpCounts
from repro.rtcore.device import RTDevice

coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestRTDBSCANCorrectness:
    def test_equivalent_to_classic_on_blobs(self, blob_points):
        ref = classic_dbscan(blob_points, eps=0.5, min_pts=5)
        got = rt_dbscan(blob_points, eps=0.5, min_pts=5)
        report = compare_results(ref, got, points=blob_points)
        assert report.equivalent, report.as_dict()

    def test_equivalent_to_classic_on_3d(self, blob_points_3d):
        ref = classic_dbscan(blob_points_3d, eps=0.6, min_pts=5)
        got = rt_dbscan(blob_points_3d, eps=0.6, min_pts=5)
        assert compare_results(ref, got, points=blob_points_3d).equivalent

    def test_equivalent_on_rings(self):
        pts, _ = make_rings(1200, radii=(1.0, 3.0), noise=0.05, seed=3)
        ref = classic_dbscan(pts, eps=0.35, min_pts=5)
        got = rt_dbscan(pts, eps=0.35, min_pts=5)
        assert ref.num_clusters == 2
        assert compare_results(ref, got, points=pts).equivalent

    def test_equivalent_on_moons(self):
        pts, _ = make_moons(600, noise=0.04, seed=4)
        ref = classic_dbscan(pts, eps=0.15, min_pts=5)
        got = rt_dbscan(pts, eps=0.15, min_pts=5)
        assert compare_results(ref, got, points=pts).equivalent

    def test_all_noise_case(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1000, size=(300, 2))
        got = rt_dbscan(pts, eps=0.01, min_pts=3)
        assert got.num_clusters == 0
        assert got.num_noise == 300

    def test_single_cluster_case(self):
        pts, _ = make_blobs(200, centers=1, std=0.1, seed=6)
        got = rt_dbscan(pts, eps=0.5, min_pts=5)
        assert got.num_clusters == 1
        assert got.num_noise == 0

    def test_min_pts_one_makes_every_point_core(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 10, size=(100, 2))
        got = rt_dbscan(pts, eps=0.5, min_pts=1)
        # minPts=1 means any point with at least one neighbour is core; a
        # fully isolated point has zero neighbours and stays noise.
        assert got.core_mask.sum() + got.num_noise == 100

    def test_duplicate_points(self):
        pts = np.vstack([np.zeros((50, 2)), np.full((50, 2), 5.0)])
        ref = classic_dbscan(pts, eps=0.1, min_pts=10)
        got = rt_dbscan(pts, eps=0.1, min_pts=10)
        assert compare_results(ref, got, points=pts).equivalent
        assert got.num_clusters == 2

    def test_neighbor_counts_saved_for_reuse(self, blob_points):
        got = rt_dbscan(blob_points, eps=0.5, min_pts=5)
        assert got.neighbor_counts is not None
        # Re-running with a larger minPts must flag exactly the points whose
        # saved counts reach it (Section VI-B use case).
        assert ((got.neighbor_counts >= 20) == rt_dbscan(
            blob_points, eps=0.5, min_pts=20).core_mask).all()

    def test_keep_neighbor_counts_flag(self, blob_points):
        got = RTDBSCAN(eps=0.5, min_pts=5, keep_neighbor_counts=False).fit(blob_points)
        assert got.neighbor_counts is None

    def test_triangle_mode_equivalent(self):
        pts, _ = make_blobs(250, centers=3, std=0.2, seed=8)
        ref = classic_dbscan(pts, eps=0.4, min_pts=5)
        got = RTDBSCAN(eps=0.4, min_pts=5, triangle_mode=True).fit(pts)
        assert compare_results(ref, got, points=pts).equivalent

    @pytest.mark.parametrize(
        "subdivisions, phases",
        [
            (0, {
                "bvh_build": {"bvh_build_prims": 4000, "kernel_launches": 1},
                "core_identification": {
                    "rt_node_visits": 43608, "intersection_calls": 25227,
                    "anyhit_calls": 14125, "kernel_launches": 1,
                },
                "cluster_formation": {"union_ops": 2907, "atomic_ops": 37},
            }),
            (1, {
                "bvh_build": {"bvh_build_prims": 16000, "kernel_launches": 1},
                "core_identification": {
                    "rt_node_visits": 47204, "intersection_calls": 15852,
                    "anyhit_calls": 7806, "kernel_launches": 1,
                },
                "cluster_formation": {"union_ops": 2453, "atomic_ops": 41},
            }),
        ],
        ids=["subdivisions0", "subdivisions1"],
    )
    def test_triangle_mode_pinned(self, subdivisions, phases):
        # Labels and per-phase op counts pinned from the pair-launch
        # implementation the CSR launch replaced; borders and noise included.
        pts, _ = make_blobs(200, centers=3, std=0.3, seed=8)
        got = RTDBSCAN(
            eps=0.3, min_pts=8, triangle_mode=True, triangle_subdivisions=subdivisions
        ).fit(pts)
        labels = np.ascontiguousarray(got.labels, dtype=np.int64)
        assert hashlib.sha256(labels.tobytes()).hexdigest() == (
            "427bd13d2e2af610f7d17cb1eb59cb937fc869ad6fbcf4cb109429642ffded9f"
        )
        assert {
            p.name: {k: v for k, v in dataclasses.asdict(p.counts).items() if v}
            for p in got.report.phases
        } == phases

    def test_sah_builder_equivalent(self, blob_points):
        ref = classic_dbscan(blob_points, eps=0.5, min_pts=5)
        got = RTDBSCAN(eps=0.5, min_pts=5, builder="sah").fit(blob_points)
        assert compare_results(ref, got, points=blob_points).equivalent

    def test_deterministic_across_runs(self, blob_points):
        a = rt_dbscan(blob_points, eps=0.5, min_pts=5)
        b = rt_dbscan(blob_points, eps=0.5, min_pts=5)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_invalid_parameters_raise(self, blob_points):
        with pytest.raises(ValueError):
            rt_dbscan(blob_points, eps=0.0, min_pts=5)
        with pytest.raises(ValueError):
            rt_dbscan(blob_points, eps=0.5, min_pts=-1)
        with pytest.raises(ValueError):
            rt_dbscan(np.zeros((10, 5)), eps=0.5, min_pts=3)

    @given(
        pts=arrays(np.float64, (60, 2), elements=coords),
        eps=st.floats(min_value=0.1, max_value=3.0),
        min_pts=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_equivalent_to_classic(self, pts, eps, min_pts):
        ref = classic_dbscan(pts, eps=eps, min_pts=min_pts, neighbor_method="brute")
        got = rt_dbscan(pts, eps=eps, min_pts=min_pts)
        report = compare_results(ref, got, points=pts)
        assert report.equivalent


class TestRTDBSCANInstrumentation:
    def test_report_has_three_phases(self, blob_points):
        got = rt_dbscan(blob_points, eps=0.5, min_pts=5)
        assert [p.name for p in got.report.phases] == [
            "bvh_build", "core_identification", "cluster_formation",
        ]
        assert got.report.total_simulated_seconds > 0

    def test_bvh_build_time_uses_rt_builder_cost(self, blob_points):
        dev = RTDevice()
        got = RTDBSCAN(eps=0.5, min_pts=5, device=dev).fit(blob_points)
        expected = dev.cost_model.build_time_s(len(blob_points), unit="rt")
        assert got.report.phase("bvh_build").simulated_seconds == pytest.approx(expected)

    def test_device_charged_with_rt_visits(self, blob_points):
        dev = RTDevice()
        RTDBSCAN(eps=0.5, min_pts=5, device=dev).fit(blob_points)
        assert dev.total_counts.rt_node_visits > 0
        assert dev.total_counts.sm_node_visits == 0
        assert dev.total_counts.union_ops > 0

    @pytest.mark.parametrize("backend", ["rt", "grid", "kdtree", "brute", "lsh", "sampled"])
    def test_stage_two_charged_as_the_full_relaunch(self, blob_points, backend):
        """Stage 2 fills only the core rows but is charged the paper's whole second launch."""
        dev = RTDevice()
        got = RTDBSCAN(eps=0.5, min_pts=5, backend=backend, device=dev).fit(blob_points)
        assert 0 < got.core_mask.sum() < len(blob_points)
        stage1 = got.report.phase("core_identification").counts
        stage2 = got.report.phase("cluster_formation").counts
        assert dict(stage2.as_dict(), union_ops=0, atomic_ops=0) == stage1.as_dict()
        assert dev.total_counts.as_dict() == OpCounts.sum([stage1, stage2]).as_dict()

    def test_device_memory_released_after_fit(self, blob_points):
        dev = RTDevice()
        RTDBSCAN(eps=0.5, min_pts=5, device=dev).fit(blob_points)
        assert dev.memory.used_bytes == 0

    def test_metadata_recorded(self, blob_points):
        got = rt_dbscan(blob_points, eps=0.5, min_pts=5)
        meta = got.report.metadata
        assert meta["eps"] == 0.5
        assert meta["min_pts"] == 5
        assert meta["num_points"] == len(blob_points)

    def test_triangle_mode_slower_than_sphere_mode(self):
        pts, _ = make_blobs(300, centers=3, std=0.2, seed=9)
        sphere = rt_dbscan(pts, eps=0.4, min_pts=5)
        tri = RTDBSCAN(eps=0.4, min_pts=5, triangle_mode=True).fit(pts)
        assert (
            tri.report.total_simulated_seconds > sphere.report.total_simulated_seconds
        )
