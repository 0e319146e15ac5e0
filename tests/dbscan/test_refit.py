"""Tests for DBSCANResult.refit — the Section VI-B minPts shortcut."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_blobs
from repro.dbscan.rt_dbscan import RTDBSCAN, rt_dbscan
from repro.native import dispatch
from repro.partition import TiledRTDBSCAN


@pytest.fixture(scope="module")
def blobs():
    pts, _ = make_blobs(500, centers=3, std=0.25, seed=21)
    return pts


@pytest.fixture(scope="module")
def fitted(blobs):
    return rt_dbscan(blobs, eps=0.4, min_pts=5)


class TestRefit:
    @pytest.mark.parametrize("new_min_pts", [1, 3, 8, 20, 100])
    def test_matches_fresh_fit(self, blobs, fitted, new_min_pts):
        refit = fitted.refit(new_min_pts)
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=new_min_pts)
        np.testing.assert_array_equal(refit.labels, fresh.labels)
        np.testing.assert_array_equal(refit.core_mask, fresh.core_mask)

    def test_skips_stage_one(self, fitted):
        # The stored counts are reused as-is — no re-count happens.
        refit = fitted.refit(10)
        assert refit.neighbor_counts is fitted.neighbor_counts
        assert refit.report is None

    def test_params_updated_eps_preserved(self, fitted):
        refit = fitted.refit(10)
        assert refit.params.min_pts == 10
        assert refit.params.eps == fitted.params.eps
        assert refit.extra["refit_from_min_pts"] == fitted.params.min_pts

    def test_refit_chains(self, blobs, fitted):
        twice = fitted.refit(10).refit(3)
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=3)
        np.testing.assert_array_equal(twice.labels, fresh.labels)

    def test_invalid_min_pts_raises(self, fitted):
        with pytest.raises(ValueError):
            fitted.refit(0)

    @pytest.mark.parametrize("subdivisions", [0, 1])
    def test_refuses_a_triangle_mode_result(self, subdivisions):
        """Triangle mode's counts miss ε-pairs, so they cannot seed the exact fill."""
        pts = make_blobs(3000, centers=5, std=0.25, seed=11)[0][:800]
        result = RTDBSCAN(
            eps=0.2, min_pts=8, triangle_mode=True, triangle_subdivisions=subdivisions
        ).fit(pts)
        assert result.algorithm == "rt-dbscan-triangles"
        with pytest.raises(ValueError, match="triangle mode's neighbour counts"):
            result.refit(4)

    def test_requires_stored_counts(self, blobs):
        result = RTDBSCAN(eps=0.4, min_pts=5, keep_neighbor_counts=False).fit(blobs)
        with pytest.raises(ValueError, match="neighbor_counts"):
            result.refit(10)

    @pytest.mark.parametrize("backend", ["grid", "kdtree", "brute"])
    def test_refit_from_any_backend(self, blobs, backend):
        fitted = RTDBSCAN(eps=0.4, min_pts=5, backend=backend).fit(blobs)
        refit = fitted.refit(12)
        fresh = rt_dbscan(blobs, eps=0.4, min_pts=12)
        np.testing.assert_array_equal(refit.labels, fresh.labels)

    @pytest.mark.skipif(not dispatch.available(), reason="native kernel tier unavailable")
    def test_refit_fills_only_new_core_rows(self, fitted, monkeypatch):
        """One seeded kd-tree fill pass over the new core points, nothing else."""
        calls = []
        original = dispatch.NativeKernels.bvh_sphere

        def counting(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(dispatch.NativeKernels, "bvh_sphere", counting)
        with dispatch.override(True):
            refit = fitted.refit(12)
        assert 0 < refit.core_mask.sum() < refit.num_points
        assert calls == [int(refit.core_mask.sum())]


class TestStoredPoints:
    """Results keep the validated input, not a per-fit 3D lift."""

    @pytest.mark.parametrize("cls", [RTDBSCAN, TiledRTDBSCAN])
    def test_2d_float64_input_is_shared(self, blobs, cls):
        assert blobs.dtype == np.float64 and blobs.shape[1] == 2
        result = cls(eps=0.4, min_pts=5).fit(blobs)
        assert result.points is blobs

    @pytest.mark.parametrize("dim", [2, 3])
    def test_refit_bit_identical_to_fresh_fit(self, blobs, dim):
        pts = blobs
        if dim == 3:
            z = np.random.default_rng(2).uniform(0.0, 0.3, size=(len(blobs), 1))
            pts = np.hstack([blobs, z])
        fitted = rt_dbscan(pts, eps=0.4, min_pts=5)
        assert fitted.points.shape == pts.shape
        for min_pts in (3, 12):
            refit = fitted.refit(min_pts)
            fresh = rt_dbscan(pts, eps=0.4, min_pts=min_pts)
            assert refit.labels.tobytes() == fresh.labels.tobytes()
            assert refit.core_mask.tobytes() == fresh.core_mask.tobytes()
