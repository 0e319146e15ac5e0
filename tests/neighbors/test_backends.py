"""Backend-protocol suite: rt / grid / kdtree / brute must agree exactly.

Covers the NeighborBackend protocol itself (counts and pair sets against the
brute-force oracle) plus per-backend plumbing: result metadata, report
phases, and error paths.  The end-to-end "identical labels on every
substrate x every execution layer" acceptance criterion lives in
tests/test_equivalence_matrix.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency import csr_row_ids
from repro.api.registry import make_backend
from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.data.synthetic import make_blobs
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.neighbors.backend import NeighborBackend
from repro.rtcore.device import RTDevice

BACKENDS = ["rt", "grid", "kdtree", "brute"]


@pytest.fixture(scope="module")
def blobs():
    pts, _ = make_blobs(350, centers=3, std=0.25, seed=5)
    return pts, 0.4


@pytest.fixture(scope="module")
def ngsim():
    pts = generate("ngsim", 600, seed=13)
    # The paper's absolute ε leaves NGSIM clusterless; calibrate one that
    # actually forms corridor clusters so the equivalence check is non-trivial.
    return pts, calibrate_eps(pts, 10, 0.5)


def _pair_set(indptr: np.ndarray, indices: np.ndarray) -> set[tuple[int, int]]:
    return set(zip(csr_row_ids(indptr).tolist(), indices.tolist()))


class TestBackendProtocol:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_satisfies_protocol(self, blobs, name):
        pts, eps = blobs
        backend = make_backend(name, pts, eps)
        try:
            assert isinstance(backend, NeighborBackend)
            assert backend.num_points == len(pts)
            assert backend.num_prims >= len(pts)
        finally:
            backend.release()

    @pytest.mark.parametrize("radius", [0.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_invalid_radius_raises(self, blobs, name, radius):
        pts, _ = blobs
        with pytest.raises(ValueError):
            make_backend(name, pts, radius)

    def test_unknown_backend_raises(self, blobs):
        pts, eps = blobs
        with pytest.raises(KeyError, match="available"):
            make_backend("octree", pts, eps)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_device_memory_released(self, blobs, name):
        pts, eps = blobs
        device = RTDevice()
        backend = make_backend(name, pts, eps, device=device)
        backend.release()
        assert device.memory.used_bytes == 0

    @pytest.mark.parametrize("name", ["grid", "kdtree", "brute"])
    def test_host_backends_charge_shader_cores(self, blobs, name):
        pts, eps = blobs
        device = RTDevice()
        backend = make_backend(name, pts, eps, device=device)
        try:
            _, stats = backend.neighbor_counts()
        finally:
            backend.release()
        assert stats.counts.distance_computations > 0
        assert stats.counts.rt_node_visits == 0
        assert stats.simulated_seconds == device.cost_model.time_s(stats.counts)


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("data", ["blobs", "ngsim"])
    def test_counts_match_oracle(self, request, name, data):
        pts, eps = request.getfixturevalue(data)
        oracle = make_backend("brute", pts, eps)
        backend = make_backend(name, pts, eps)
        try:
            expected, _ = oracle.neighbor_counts()
            got, stats = backend.neighbor_counts()
            np.testing.assert_array_equal(got, expected)
            assert stats.counts.kernel_launches >= 1
        finally:
            backend.release()
            oracle.release()

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("data", ["blobs", "ngsim"])
    def test_pair_sets_match_oracle(self, request, name, data):
        pts, eps = request.getfixturevalue(data)
        oracle = make_backend("brute", pts, eps)
        backend = make_backend(name, pts, eps)
        try:
            e_ptr, e_idx, _ = oracle.neighbor_csr()
            g_ptr, g_idx, _ = backend.neighbor_csr()
            assert _pair_set(g_ptr, g_idx) == _pair_set(e_ptr, e_idx)
        finally:
            backend.release()
            oracle.release()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_external_queries_supported(self, blobs, name):
        pts, eps = blobs
        rng = np.random.default_rng(3)
        queries = rng.uniform(pts.min(), pts.max(), size=(25, pts.shape[1]))
        oracle = make_backend("brute", pts, eps)
        backend = make_backend(name, pts, eps)
        try:
            expected, _ = oracle.neighbor_counts(queries)
            got, _ = backend.neighbor_counts(queries)
            np.testing.assert_array_equal(got, expected)
        finally:
            backend.release()
            oracle.release()


class TestRTDBSCANBackendEquivalence:
    """Per-backend fit plumbing (labels equivalence: see the matrix suite)."""

    def test_backend_recorded_in_result(self, blobs):
        pts, eps = blobs
        result = RTDBSCAN(eps=eps, min_pts=5, backend="kdtree").fit(pts)
        assert result.extra["backend"] == "kdtree"
        assert result.report.metadata["backend"] == "kdtree"

    def test_report_phases_preserved_on_host_backends(self, blobs):
        pts, eps = blobs
        result = RTDBSCAN(eps=eps, min_pts=5, backend="grid").fit(pts)
        assert [p.name for p in result.report.phases] == [
            "bvh_build", "core_identification", "cluster_formation",
        ]

    def test_triangle_mode_requires_rt_backend(self):
        with pytest.raises(ValueError, match="triangle_mode"):
            RTDBSCAN(eps=0.5, min_pts=5, backend="grid", triangle_mode=True)

    def test_unknown_backend_raises_at_fit(self, blobs):
        pts, eps = blobs
        with pytest.raises(KeyError, match="available"):
            RTDBSCAN(eps=eps, min_pts=5, backend="octree").fit(pts)
