"""Tests for the batched BVH traversal kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.adjacency import csr_row_ids
from repro.bvh import build_lbvh, build_sah, point_query_counts_early_exit, point_query_csr
from repro.geometry.aabb import AABB, aabb_contains_points

coords = st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False)


def _scene(n=300, radius=0.6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(n, 3))
    bounds = AABB.from_spheres(centers, radius)
    return centers, bounds


def _brute_candidates(bounds: AABB, queries: np.ndarray) -> set[tuple[int, int]]:
    inside = aabb_contains_points(bounds.lower, bounds.upper, queries)
    prim, q = np.nonzero(inside)
    return set(zip(q.tolist(), prim.tolist()))


def _candidates(bvh, queries, **kwargs):
    """Every candidate ``(query, primitive)`` pair: an accept-all CSR launch."""
    indptr, indices, stats = point_query_csr(
        bvh, queries, lambda q, p: np.ones(q.size, dtype=bool), **kwargs
    )
    return csr_row_ids(indptr), indices, stats


@pytest.mark.parametrize("builder", [build_lbvh, build_sah])
class TestPointQueryPairs:
    def test_candidates_complete_and_exact_after_filtering(self, builder):
        centers, bounds = _scene(200)
        bvh = builder(bounds, leaf_size=4)
        queries = centers[:50]
        qi, pi, stats = _candidates(bvh, queries)
        got = set(zip(qi.tolist(), pi.tolist()))
        expected = _brute_candidates(bounds, queries)
        # Completeness: every true box containment must appear as a candidate
        # (a leaf may contribute extra candidates, which the Intersection
        # program filters out afterwards).
        assert expected.issubset(got)
        # Exactness after the per-primitive box filter.
        inside = aabb_contains_points(bounds.lower[pi], bounds.upper[pi], queries)[
            np.arange(pi.size), qi
        ] if pi.size else np.zeros(0, dtype=bool)
        filtered = set(zip(qi[inside].tolist(), pi[inside].tolist()))
        assert filtered == expected

    def test_no_duplicate_pairs(self, builder):
        centers, bounds = _scene(150)
        bvh = builder(bounds, leaf_size=4)
        qi, pi, _ = _candidates(bvh, centers)
        pairs = list(zip(qi.tolist(), pi.tolist()))
        assert len(pairs) == len(set(pairs))

    def test_self_candidate_always_present(self, builder):
        centers, bounds = _scene(100)
        bvh = builder(bounds, leaf_size=4)
        qi, pi, _ = _candidates(bvh, centers)
        self_pairs = set(zip(range(100), range(100)))
        assert self_pairs.issubset(set(zip(qi.tolist(), pi.tolist())))

    def test_far_query_has_no_candidates(self, builder):
        centers, bounds = _scene(100)
        bvh = builder(bounds, leaf_size=4)
        qi, pi, _ = _candidates(bvh, np.array([[1000.0, 1000.0, 1000.0]]))
        assert qi.size == 0 and pi.size == 0

    def test_chunking_gives_identical_results(self, builder):
        centers, bounds = _scene(200)
        bvh = builder(bounds, leaf_size=4)
        qi1, pi1, _ = _candidates(bvh, centers, chunk_size=7)
        qi2, pi2, _ = _candidates(bvh, centers, chunk_size=100000)
        np.testing.assert_array_equal(qi1, qi2)
        np.testing.assert_array_equal(pi1, pi2)

    def test_stats_counters_consistent(self, builder):
        centers, bounds = _scene(100)
        bvh = builder(bounds, leaf_size=4)
        qi, _, stats = _candidates(bvh, centers)
        assert stats.queries == 100
        assert stats.candidates == stats.confirmed == qi.size
        assert stats.node_visits >= 100  # at least the root per query
        assert stats.leaf_visits >= 1
        assert stats.levels >= 1

    @given(pts=arrays(np.float64, (30, 3), elements=coords),
           radius=st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_property_candidate_completeness(self, builder, pts, radius):
        bounds = AABB.from_spheres(pts, radius)
        bvh = builder(bounds, leaf_size=3)
        qi, pi, _ = _candidates(bvh, pts)
        got = set(zip(qi.tolist(), pi.tolist()))
        assert _brute_candidates(bounds, pts).issubset(got)


class TestEarlyExitCounts:
    def _confirm(self, centers, radius):
        def fn(q, p):
            d = centers[q] - centers[p]
            return np.einsum("ij,ij->i", d, d) <= radius * radius
        return fn

    def test_counts_match_brute_force_without_min_count(self):
        centers, bounds = _scene(150, radius=1.5)
        bvh = build_lbvh(bounds, leaf_size=4)
        counts, _ = point_query_counts_early_exit(bvh, centers, self._confirm(centers, 1.5))
        d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        expected = (d2 <= 1.5**2).sum(axis=1)
        np.testing.assert_array_equal(counts, expected)

    def test_min_count_saturates(self):
        centers, bounds = _scene(200, radius=3.0)
        bvh = build_lbvh(bounds, leaf_size=4)
        counts, stats = point_query_counts_early_exit(
            bvh, centers, self._confirm(centers, 3.0), min_count=3
        )
        full, full_stats = point_query_counts_early_exit(
            bvh, centers, self._confirm(centers, 3.0), min_count=None
        )
        # Early exit may undercount but never below min_count when the true
        # count reaches it, and never overcounts the true value.
        assert (counts <= full).all()
        assert (counts[full >= 3] >= 3).all()
        assert stats.node_visits <= full_stats.node_visits

    def test_zero_radius_counts_only_self(self):
        centers, bounds = _scene(80, radius=1e-9)
        bvh = build_lbvh(bounds, leaf_size=2)
        counts, _ = point_query_counts_early_exit(bvh, centers, self._confirm(centers, 1e-9))
        assert (counts == 1).all()  # each point confirms only itself
