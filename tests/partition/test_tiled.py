"""Partition-layer behaviour: halo mechanics, executors, API integration.

The backend x dataset bit-identity acceptance bar for the tiled layer lives
in tests/test_equivalence_matrix.py (the cross-layer equivalence matrix);
this file keeps the partition-specific checks — halo coverage, tiling grids,
worker threads, refit, and the per-tile operation counts stitching
back to the untiled run's totals for every workload-invariant counter.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api.registry import get_algorithm
from repro.api.spec import ClustererSpec
from repro.bench.runner import run_sweep
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.partition import ParallelMap, TiledRTDBSCAN, tiled_rt_dbscan

BACKENDS = ["rt", "grid", "kdtree", "brute"]


def _assert_same_result(tiled, ref):
    np.testing.assert_array_equal(tiled.labels, ref.labels)
    np.testing.assert_array_equal(tiled.core_mask, ref.core_mask)
    np.testing.assert_array_equal(tiled.neighbor_counts, ref.neighbor_counts)


class TestLabelEquivalence:
    def test_blobs_3d_match_untiled(self, blob_points_3d):
        ref = RTDBSCAN(eps=0.5, min_pts=5).fit(blob_points_3d)
        tiled = TiledRTDBSCAN(eps=0.5, min_pts=5, tiles=8).fit(blob_points_3d)
        _assert_same_result(tiled, ref)

    def test_halo_overlaps_are_exercised(self, blob_points):
        """The equivalence must hold *because of* the halo, not vacuously."""
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, tiles=4).fit(blob_points)
        assert tiled.extra["num_boundary_pairs"] > 0
        assert any(t["num_halo"] > 0 for t in tiled.extra["tiles"])
        # At least one cluster spans more than one tile's owned set, so the
        # boundary merge genuinely stitched shards together.
        owned_of = np.empty(blob_points.shape[0], dtype=int)
        for tile in repro.Tiler(0.3, tiles=4).split(blob_points):
            owned_of[tile.owned] = tile.tile_id
        spans = [
            len(set(owned_of[tiled.labels == label].tolist()))
            for label in range(tiled.num_clusters)
        ]
        assert max(spans) > 1
        # Boundary pairs: core-row ε-pairs whose endpoints different tiles own,
        # counted independently of the tile worker.
        d2 = ((blob_points[:, None, :] - blob_points[None, :, :]) ** 2).sum(axis=2)
        q, p = np.nonzero(d2 <= 0.3 * 0.3)
        crossing = (q != p) & tiled.core_mask[q] & (owned_of[q] != owned_of[p])
        assert tiled.extra["num_boundary_pairs"] == int(crossing.sum())
        per_tile = np.bincount(owned_of[q[crossing]], minlength=len(tiled.extra["tiles"]))
        assert [t["num_boundary_pairs"] for t in tiled.extra["tiles"]] == per_tile.tolist()

    @pytest.mark.parametrize("backend", ["rt", "kdtree"])
    def test_workers_do_not_change_labels(self, blob_points, backend):
        ref = TiledRTDBSCAN(eps=0.3, min_pts=5, backend=backend, tiles=4).fit(blob_points)
        threaded = TiledRTDBSCAN(
            eps=0.3, min_pts=5, backend=backend, tiles=4, workers=4
        ).fit(blob_points)
        _assert_same_result(threaded, ref)
        # Per-tile pair counts, op counts and simulated seconds, in tile order.
        assert threaded.extra["tiles"] == ref.extra["tiles"]
        for a, b in zip(threaded.report.phases, ref.report.phases):
            assert a.counts.as_dict() == b.counts.as_dict()
        assert threaded.report.total_simulated_seconds == ref.report.total_simulated_seconds

    def test_explicit_grid(self, blob_points):
        ref = RTDBSCAN(eps=0.3, min_pts=5).fit(blob_points)
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, grid=(3, 2, 1)).fit(blob_points)
        _assert_same_result(tiled, ref)

    def test_refit_works_from_tiled_result(self, blob_points):
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, tiles=4).fit(blob_points)
        ref = RTDBSCAN(eps=0.3, min_pts=10).fit(blob_points)
        np.testing.assert_array_equal(tiled.refit(10).labels, ref.labels)

    def test_functional_wrapper(self, blob_points):
        result = tiled_rt_dbscan(blob_points, 0.3, 5, tiles=4)
        assert result.algorithm == "rt-dbscan-tiled"


class TestCountParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invariant_counters_stitch_back(self, blob_points, backend):
        """Per-tile OpCounts sum to the untiled run's workload invariants."""
        ref = RTDBSCAN(eps=0.3, min_pts=5, backend=backend).fit(blob_points)
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, backend=backend, tiles=4).fit(blob_points)

        # The merge performs the identical union/atomic work (same edge
        # multiset, same deterministic formation pass).
        ref_form = ref.report.phase("cluster_formation").counts
        tiled_form = tiled.report.phase("cluster_formation").counts
        assert tiled_form.union_ops == ref_form.union_ops
        assert tiled_form.atomic_ops == ref_form.atomic_ops
        # Stage 2 fills only the core rows but is charged the paper's whole
        # second launch: the stage-1 counts again, tile by tile.
        stage1 = tiled.report.phase("core_identification").counts
        assert dict(tiled_form.as_dict(), union_ops=0, atomic_ops=0) == stage1.as_dict()
        assert all(t["stage2_seconds"] == t["stage1_seconds"] for t in tiled.extra["tiles"])

        # One query per owned point per stage: ray totals match exactly, and
        # the per-tile summaries stitch back to the phase totals.
        per_tile = tiled.extra["tiles"]
        n = blob_points.shape[0]
        assert sum(t["num_owned"] for t in per_tile) == n
        phase_total = sum(
            p.counts.distance_computations + p.counts.intersection_calls
            for p in tiled.report.phases
        )
        tile_total = sum(
            t["counts"]["distance_computations"] + t["counts"]["intersection_calls"]
            for t in per_tile
        )
        assert phase_total == tile_total

        # Host backends derive candidates from data volume, so tiling can
        # only shrink them (each shard's index covers its local set).  The
        # rt and kdtree backends charge real tree-traversal candidates,
        # which are BVH/kd-tree-shape dependent — per-tile trees pack
        # differently — so they are only bounded within rounding.
        ref_candidates = sum(
            p.counts.distance_computations + p.counts.intersection_calls
            for p in ref.report.phases
        )
        if backend in ("rt", "kdtree"):
            assert tile_total <= 1.25 * ref_candidates
        else:
            assert tile_total <= ref_candidates

    def test_brute_candidate_work_shrinks(self, blob_points):
        """For the quadratic backend the tiling win is strict and large."""
        ref = RTDBSCAN(eps=0.3, min_pts=5, backend="brute").fit(blob_points)
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, backend="brute", tiles=4).fit(blob_points)
        ref_dist = sum(p.counts.distance_computations for p in ref.report.phases)
        tiled_dist = sum(p.counts.distance_computations for p in tiled.report.phases)
        assert tiled_dist < ref_dist

    def test_critical_path_below_total(self, blob_points):
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, tiles=4).fit(blob_points)
        meta = tiled.report.metadata
        assert 0 < meta["critical_path_seconds"] < tiled.report.total_simulated_seconds
        assert meta["parallel_speedup_bound"] > 1.0

    def test_report_phases_and_metadata(self, blob_points):
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, tiles=4, workers=2).fit(blob_points)
        names = [p.name for p in tiled.report.phases]
        assert names == ["tile_split", "bvh_build", "core_identification", "cluster_formation"]
        meta = tiled.report.metadata
        assert meta["num_tiles"] == 4
        assert meta["workers"] == 2


class TestApiIntegration:
    def test_registry_entry(self):
        entry = get_algorithm("rt-dbscan-tiled")
        assert entry.supports_backend
        assert entry.supports_tiles

    def test_spec_tiles_and_workers_round_trip(self):
        spec = ClustererSpec(algo="rt-dbscan-tiled", eps=0.3, tiles=4, workers=2)
        assert spec.resolve()[0].name == "rt-dbscan-tiled"
        assert spec.as_dict()["tiles"] == 4
        assert spec.as_dict()["workers"] == 2

    def test_spec_rejects_tiles_for_untiled_algorithms(self):
        with pytest.raises(ValueError, match="tiles"):
            ClustererSpec(algo="rt-dbscan", eps=0.3, tiles=4).resolve()

    def test_spec_validates_tiles_and_workers(self):
        with pytest.raises(ValueError):
            ClustererSpec(algo="rt-dbscan-tiled", eps=0.3, tiles=0)
        with pytest.raises(ValueError):
            ClustererSpec(algo="rt-dbscan-tiled", eps=0.3, workers=-2)

    def test_facade_runs_tiled(self, blob_points):
        ref = repro.cluster(blob_points, eps=0.3, min_pts=5)
        got = repro.cluster(
            blob_points, "rt-dbscan-tiled", eps=0.3, min_pts=5, tiles=4, workers=2
        )
        np.testing.assert_array_equal(got.labels, ref.labels)

    def test_facade_at_backend_spelling(self, blob_points):
        ref = repro.cluster(blob_points, eps=0.3, min_pts=5)
        got = repro.cluster(blob_points, "rt-dbscan-tiled@kdtree", eps=0.3, min_pts=5, tiles=4)
        np.testing.assert_array_equal(got.labels, ref.labels)

    def test_facade_exposes_calibrated_eps(self, blob_points):
        result = repro.cluster(blob_points, min_pts=5, seed=11)
        assert result.extra["calibrated_eps"] == pytest.approx(result.params.eps)
        assert result.extra["calibration_seed"] == 11
        assert result.report.metadata["calibrated_eps"] == result.extra["calibrated_eps"]

    def test_facade_explicit_eps_has_no_calibration_metadata(self, blob_points):
        result = repro.cluster(blob_points, eps=0.3, min_pts=5)
        assert "calibrated_eps" not in result.extra

    def test_facade_calibration_seed_is_reproducible(self, rng):
        pts = rng.uniform(-5, 5, size=(600, 2))
        a = repro.cluster(pts, min_pts=5, seed=3, calibration_sample=200)
        b = repro.cluster(pts, min_pts=5, seed=3, calibration_sample=200)
        c = repro.cluster(pts, min_pts=5, seed=4, calibration_sample=200)
        assert a.params.eps == b.params.eps
        # A different seed samples different points; ε may legitimately tie,
        # but the calibration inputs differ — record both for the comparison.
        assert c.extra["calibration_seed"] == 4

    def test_auto_tiles(self, blob_points):
        # "auto" keeps small inputs untiled and stays label-identical.
        ref = RTDBSCAN(eps=0.3, min_pts=5).fit(blob_points)
        tiled = TiledRTDBSCAN(eps=0.3, min_pts=5, tiles="auto").fit(blob_points)
        _assert_same_result(tiled, ref)
        assert tiled.extra["num_tiles"] == 1

    def test_invalid_tiles_rejected(self):
        with pytest.raises(ValueError):
            TiledRTDBSCAN(eps=0.3, min_pts=5, tiles="many")
        with pytest.raises(ValueError):
            TiledRTDBSCAN(eps=0.3, min_pts=5, tiles=0)


class TestSweepParallelism:
    def _configs(self, blob_points):
        return [("blobs", blob_points, 0.3, 5), ("blobs", blob_points, 0.45, 5)]

    def test_parallel_sweep_matches_serial(self, blob_points):
        algos = ["rt-dbscan", "rt-dbscan-tiled"]
        serial = run_sweep(algos, self._configs(blob_points))
        threaded = run_sweep(algos, self._configs(blob_points), workers=4)
        assert len(serial) == len(threaded) == 4
        for s, t in zip(serial, threaded):
            s_dict, t_dict = s.as_dict(), t.as_dict()
            # Wall-clock differs by construction; simulated results must not.
            s_dict.pop("wall_seconds"), t_dict.pop("wall_seconds")
            assert s_dict == t_dict

    def test_existing_executor_accepted(self, blob_points):
        records = run_sweep(
            ["rt-dbscan"], self._configs(blob_points), workers=ParallelMap(workers=2)
        )
        assert [r.status for r in records] == ["ok", "ok"]
