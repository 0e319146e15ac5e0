"""Tests for the fixed-radius neighbour searches (RT, brute force, grid, kNN)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.adjacency import csr_row_ids
from repro.neighbors.brute import (
    brute_force_neighbor_counts,
    brute_force_neighbors,
    pairwise_within,
)
from repro.neighbors.grid import UniformGrid
from repro.neighbors.knn import knn_brute_force, kth_neighbor_distances, suggest_eps
from repro.neighbors.rt_find import RTNeighborFinder, rt_find_neighbors

coords2d = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def _points(n=200, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(-5, 5, size=(n, dim))


class TestBruteForce:
    def test_pairwise_within_includes_self(self):
        pts = _points(50)
        q, d = pairwise_within(pts, pts, 0.5)
        assert set(zip(range(50), range(50))) <= set(zip(q.tolist(), d.tolist()))

    def test_pairwise_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            pairwise_within(np.zeros((3, 2)), np.zeros((3, 3)), 1.0)

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            pairwise_within(np.zeros((3, 2)), np.zeros((3, 2)), -0.1)

    def test_neighbors_exclude_self_by_default(self):
        pts = _points(80)
        lists = brute_force_neighbors(pts, 1.0)
        assert all(i not in lst for i, lst in enumerate(lists))

    def test_include_self_flag(self):
        pts = _points(30)
        lists = brute_force_neighbors(pts, 1.0, include_self=True)
        assert all(i in lst for i, lst in enumerate(lists))

    def test_counts_match_lists(self):
        pts = _points(60)
        lists = brute_force_neighbors(pts, 1.2)
        counts = brute_force_neighbor_counts(pts, 1.2)
        np.testing.assert_array_equal(counts, [len(lst) for lst in lists])

    def test_chunking_invariance(self):
        pts = _points(70)
        a = brute_force_neighbor_counts(pts, 0.8, chunk_size=7)
        b = brute_force_neighbor_counts(pts, 0.8, chunk_size=10_000)
        np.testing.assert_array_equal(a, b)


class TestRTNeighborFinder:
    def test_matches_brute_force_2d(self):
        pts = _points(150, seed=1)
        finder = RTNeighborFinder(pts, 0.9)
        lists, _ = rt_find_neighbors(pts, 0.9)
        expected = brute_force_neighbors(pts, 0.9)
        for got, exp in zip(lists, expected):
            assert set(got.tolist()) == set(exp.tolist())
        finder.release()

    def test_matches_brute_force_3d(self):
        pts = _points(120, seed=2, dim=3)
        lists, _ = rt_find_neighbors(pts, 1.1)
        expected = brute_force_neighbors(pts, 1.1)
        for got, exp in zip(lists, expected):
            assert set(got.tolist()) == set(exp.tolist())

    def test_counts_match_brute_force(self):
        pts = _points(100, seed=3)
        finder = RTNeighborFinder(pts, 0.7)
        counts, stats = finder.neighbor_counts()
        np.testing.assert_array_equal(counts, brute_force_neighbor_counts(pts, 0.7))
        assert stats.num_rays == 100
        finder.release()

    def test_external_query_points(self):
        pts = _points(100, seed=4)
        queries = _points(20, seed=5)
        finder = RTNeighborFinder(pts, 1.0)
        indptr, indices, _ = finder.neighbor_csr(queries)
        d2 = ((queries[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        exp_q, exp_p = np.nonzero(d2 <= 1.0)
        got = set(zip(csr_row_ids(indptr).tolist(), indices.tolist()))
        # External queries never coincide with data points here, so the only
        # difference from the raw distance test is the self-exclusion filter,
        # which does not apply.
        assert got == set(zip(exp_q.tolist(), exp_p.tolist()))
        finder.release()

    def test_invalid_radius_raises(self):
        with pytest.raises(ValueError):
            RTNeighborFinder(_points(10), 0.0)

    def test_invalid_points_raise(self):
        with pytest.raises(ValueError):
            RTNeighborFinder(np.zeros((5, 4)), 1.0)

    def test_triangle_mode_matches_sphere_mode(self):
        pts = _points(60, seed=6)
        sphere_lists, _ = rt_find_neighbors(pts, 0.8)
        tri_lists, _ = rt_find_neighbors(pts, 0.8, triangle_mode=True)
        for a, b in zip(sphere_lists, tri_lists):
            assert set(a.tolist()) == set(b.tolist())

    @pytest.mark.parametrize("triangle_mode", [False, True], ids=["sphere", "triangle"])
    def test_pair_exactly_eps_apart_is_listed(self, boundary_eps, triangle_mode):
        # Both points sit on each other's sphere surface: squared distance
        # eps * eps, which the sphere program's r2 must accept.
        pts = np.array([[0.0, 0.0], [boundary_eps, 0.0]])
        finder = RTNeighborFinder(pts, boundary_eps, triangle_mode=triangle_mode)
        indptr, indices, _ = finder.neighbor_csr()
        np.testing.assert_array_equal(indptr, [0, 1, 2])
        np.testing.assert_array_equal(indices, [1, 0])
        finder.release()

    @pytest.mark.parametrize("subdivisions", [0, 1])
    def test_triangle_mode_counts_are_csr_row_lengths(self, subdivisions):
        # A sphere is hit through several of its triangles; the counts must
        # still be one per neighbour, and cost what the CSR launch costs.
        pts = _points(150, seed=7)
        queries = _points(20, seed=8)
        finder = RTNeighborFinder(
            pts, 0.9, triangle_mode=True, triangle_subdivisions=subdivisions
        )
        for q in (None, queries):
            counts, count_stats = finder.neighbor_counts(q)
            indptr, _, csr_stats = finder.neighbor_csr(q)
            np.testing.assert_array_equal(counts, np.diff(indptr))
            assert count_stats.counts == csr_stats.counts
            assert count_stats.simulated_seconds == csr_stats.simulated_seconds
        finder.release()

    @given(pts=arrays(np.float64, (25, 2), elements=coords2d),
           eps=st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_property_matches_brute_force(self, pts, eps):
        lists, _ = rt_find_neighbors(pts, eps)
        expected = brute_force_neighbors(pts, eps)
        for got, exp in zip(lists, expected):
            assert set(got.tolist()) == set(exp.tolist())


class TestUniformGrid:
    def test_stencil_candidates_hold_every_neighbour(self):
        """CUDA-DClust+'s candidates: the 3^d cells around a point cover its ε-ball."""
        pts = _points(200, seed=7)
        grid = UniformGrid(pts, 0.8)
        expected = brute_force_neighbors(pts, 0.8)
        for i in range(len(pts)):
            cand = grid.candidate_neighbors(pts[i])
            assert np.unique(cand).size == cand.size
            assert set(expected[i].tolist()) | {i} <= set(cand.tolist())

    def test_invalid_cell_size_raises(self):
        with pytest.raises(ValueError):
            UniformGrid(_points(10), 0.0)

    def test_cell_table_partitions_the_points(self):
        """``order`` is a permutation that ``cell_indptr`` splits into the occupied cells."""
        pts = _points(150, seed=8)
        grid = UniformGrid(pts, 1.0)
        assert sorted(grid.order.tolist()) == list(range(150))
        assert grid.cell_indptr[0] == 0 and grid.cell_indptr[-1] == 150
        sizes = np.diff(grid.cell_indptr)
        assert (sizes > 0).all() and sizes.size == grid.cell_table.size
        assert (np.diff(grid.cell_table) > 0).all()
        cell_of = np.repeat(grid.cell_table, sizes)
        np.testing.assert_array_equal(grid.cell_ids[grid.order], cell_of)

    def test_memory_bytes_positive(self):
        assert UniformGrid(_points(50), 1.0).memory_bytes() > 0

    def test_3d_grid(self):
        pts = _points(100, seed=10, dim=3)
        grid = UniformGrid(pts, 0.9)
        expected = brute_force_neighbors(pts, 0.9)
        for i in (0, 10, 50, 99):
            cand = grid.candidate_neighbors(pts[i])
            assert set(expected[i].tolist()) | {i} <= set(cand.tolist())


class TestKNN:
    def test_kth_distances_match_brute_force(self):
        pts = _points(80, seed=11)
        d3 = kth_neighbor_distances(pts, 3)
        nn = knn_brute_force(pts, 3)
        expected = np.linalg.norm(pts - pts[nn[:, 2]], axis=1)
        np.testing.assert_allclose(d3, expected, atol=1e-9)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            kth_neighbor_distances(_points(10), 0)
        with pytest.raises(ValueError):
            kth_neighbor_distances(_points(10), 10)

    def test_suggest_eps_gives_enough_core_points(self):
        pts = _points(300, seed=12)
        eps = suggest_eps(pts, min_pts=5, quantile=0.9)
        counts = brute_force_neighbor_counts(pts, eps)
        assert (counts >= 5).mean() >= 0.5

    def test_suggest_eps_invalid_quantile(self):
        with pytest.raises(ValueError):
            suggest_eps(_points(20), 3, quantile=1.5)
