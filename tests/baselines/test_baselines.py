"""Correctness tests for the GPU baselines (FDBSCAN, G-DBSCAN, CUDA-DClust+)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.cuda_dclust import CUDADClustPlus, cuda_dclust_plus
from repro.baselines.fdbscan import FDBSCAN, fdbscan
from repro.baselines.gdbscan import GDBSCAN, gdbscan
from repro.dbscan.classic import classic_dbscan
from repro.dbscan.rt_dbscan import rt_dbscan
from repro.data.synthetic import make_blobs
from repro.metrics.agreement import compare_results
from repro.perf.cost_model import DeviceCostModel, OpCounts
from repro.perf.memory import DeviceMemoryError
from repro.rtcore.device import RTDevice

coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)

ALL_BASELINES = [fdbscan, gdbscan, cuda_dclust_plus]


@pytest.mark.parametrize("algorithm", ALL_BASELINES, ids=["fdbscan", "gdbscan", "dclust"])
class TestBaselineCorrectness:
    def test_equivalent_to_classic_on_blobs(self, algorithm, blob_points):
        ref = classic_dbscan(blob_points, eps=0.5, min_pts=5)
        got = algorithm(blob_points, eps=0.5, min_pts=5)
        assert compare_results(ref, got, points=blob_points).equivalent

    def test_all_noise_case(self, algorithm):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1000, size=(150, 2))
        got = algorithm(pts, eps=0.05, min_pts=3)
        assert got.num_clusters == 0
        assert got.num_noise == 150

    def test_single_cluster_case(self, algorithm):
        pts, _ = make_blobs(150, centers=1, std=0.1, seed=2)
        got = algorithm(pts, eps=0.5, min_pts=5)
        assert got.num_clusters == 1

    def test_report_attached(self, algorithm, blob_points):
        got = algorithm(blob_points, eps=0.5, min_pts=5)
        assert got.report is not None
        assert got.report.total_simulated_seconds > 0

    def test_invalid_params_raise(self, algorithm, blob_points):
        with pytest.raises(ValueError):
            algorithm(blob_points, eps=-1.0, min_pts=5)

    @given(
        pts=arrays(np.float64, (50, 2), elements=coords),
        eps=st.floats(min_value=0.2, max_value=2.0),
        min_pts=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_equivalent_to_classic(self, algorithm, pts, eps, min_pts):
        ref = classic_dbscan(pts, eps=eps, min_pts=min_pts, neighbor_method="brute")
        got = algorithm(pts, eps=eps, min_pts=min_pts)
        assert compare_results(ref, got, points=pts).equivalent


class TestFDBSCANSpecifics:
    def test_early_exit_same_labels(self, blob_points):
        plain = fdbscan(blob_points, eps=0.5, min_pts=5)
        early = fdbscan(blob_points, eps=0.5, min_pts=5, early_exit=True)
        np.testing.assert_array_equal(plain.labels, early.labels)
        np.testing.assert_array_equal(plain.core_mask, early.core_mask)

    def test_early_exit_not_slower(self, blob_points):
        plain = fdbscan(blob_points, eps=0.5, min_pts=5)
        early = fdbscan(blob_points, eps=0.5, min_pts=5, early_exit=True)
        assert (
            early.report.total_simulated_seconds
            <= plain.report.total_simulated_seconds + 1e-12
        )

    def test_early_exit_reduces_stage1_cost_in_dense_data(self):
        pts, _ = make_blobs(1000, centers=2, std=0.2, seed=5)
        plain = fdbscan(pts, eps=0.5, min_pts=5)
        early = fdbscan(pts, eps=0.5, min_pts=5, early_exit=True)
        assert (
            early.report.phase("core_identification").simulated_seconds
            < plain.report.phase("core_identification").simulated_seconds
        )

    def test_uses_shader_core_counters(self, blob_points):
        got = FDBSCAN(eps=0.5, min_pts=5, device=RTDevice()).fit(blob_points)
        total = OpCounts.sum(p.counts for p in got.report.phases)
        assert total.sm_node_visits > 0
        assert total.rt_node_visits == 0

    def test_build_cheaper_than_rt_dbscan_build(self, blob_points):
        f = fdbscan(blob_points, eps=0.5, min_pts=5)
        r = rt_dbscan(blob_points, eps=0.5, min_pts=5)
        assert (
            f.report.phase("bvh_build").simulated_seconds
            < r.report.phase("bvh_build").simulated_seconds
        )

    def test_phase_names(self, blob_points):
        got = fdbscan(blob_points, eps=0.5, min_pts=5)
        assert [p.name for p in got.report.phases] == [
            "bvh_build", "core_identification", "cluster_formation",
        ]


class TestGDBSCANSpecifics:
    def test_out_of_memory_on_large_dataset(self):
        # A 100K-point dataset needs a 10 GB pairwise working matrix, which
        # exceeds the 6 GB device (the paper's Section V-B1 observation).
        # The OOM is raised during the device allocation, before any of the
        # expensive host-side work happens.
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, size=(100_000, 2))
        with pytest.raises(DeviceMemoryError):
            GDBSCAN(eps=0.01, min_pts=5).fit(pts)

    def test_fits_at_16k_points(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 10, size=(16_000, 2))
        got = gdbscan(pts, eps=0.05, min_pts=5)
        assert got.report is not None

    def test_phase_names(self, blob_points):
        got = gdbscan(blob_points, eps=0.5, min_pts=5)
        assert [p.name for p in got.report.phases] == [
            "graph_construction", "core_identification", "cluster_identification",
        ]

    def test_quadratic_distance_cost_charged(self, blob_points):
        got = GDBSCAN(eps=0.5, min_pts=5, device=RTDevice()).fit(blob_points)
        n = len(blob_points)
        assert got.report.phase("graph_construction").counts.distance_computations >= n * n

    def test_memory_released_after_run(self, blob_points):
        dev = RTDevice()
        GDBSCAN(eps=0.5, min_pts=5, device=dev).fit(blob_points)
        assert dev.memory.used_bytes == 0


class TestCUDADClustSpecifics:
    def test_out_of_memory_on_large_dataset(self):
        # The per-point neighbour-table buffers exceed 6 GB beyond ~2x10^5
        # points, reproducing the paper's memory issues with this baseline.
        # Memory is validated against the device before the table is built.
        cost = DeviceCostModel()
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(250_000, 2))
        clusterer = CUDADClustPlus(eps=0.01, min_pts=5)
        with pytest.raises(DeviceMemoryError):
            clusterer.fit(pts)
        assert cost.device_memory_bytes == 6 * 1024**3

    def test_phase_names(self, blob_points):
        got = cuda_dclust_plus(blob_points, eps=0.5, min_pts=5)
        assert [p.name for p in got.report.phases] == [
            "index_construction", "chain_expansion", "collision_resolution",
        ]

    def test_memory_released_after_run(self, blob_points):
        dev = RTDevice()
        CUDADClustPlus(eps=0.5, min_pts=5, device=dev).fit(blob_points)
        assert dev.memory.used_bytes == 0

    def test_kernel_launch_rounds_scale_with_chain_length(self, blob_points):
        short = CUDADClustPlus(eps=0.5, min_pts=5, chain_length=8).fit(blob_points)
        long = CUDADClustPlus(eps=0.5, min_pts=5, chain_length=512).fit(blob_points)
        assert (
            short.report.phase("chain_expansion").counts.kernel_launches
            >= long.report.phase("chain_expansion").counts.kernel_launches
        )


class TestCrossAlgorithmAgreement:
    """All five implementations agree pairwise on the same input."""

    def test_all_equivalent(self, blob_points):
        eps, min_pts = 0.5, 5
        results = {
            "classic": classic_dbscan(blob_points, eps, min_pts),
            "rt": rt_dbscan(blob_points, eps, min_pts),
            "fdbscan": fdbscan(blob_points, eps, min_pts),
            "gdbscan": gdbscan(blob_points, eps, min_pts),
            "dclust": cuda_dclust_plus(blob_points, eps, min_pts),
        }
        ref = results["classic"]
        for name, res in results.items():
            assert compare_results(ref, res, points=blob_points).equivalent, name
