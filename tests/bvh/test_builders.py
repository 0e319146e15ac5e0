"""Structural tests for the LBVH and SAH builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bvh import (
    INVALID_NODE,
    build_kdtree,
    build_lbvh,
    build_sah,
    leaf_occupancy,
    refit,
    sah_cost,
)
from repro.geometry.aabb import AABB

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def _sphere_bounds(n, seed=0, radius=0.5):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(n, 3))
    return AABB.from_spheres(centers, radius), centers


@pytest.mark.parametrize("builder", [build_lbvh, build_sah])
class TestBuilderInvariants:
    def test_validate_passes(self, builder):
        bounds, _ = _sphere_bounds(300)
        bvh = builder(bounds, leaf_size=4)
        bvh.validate()

    def test_every_primitive_in_exactly_one_leaf(self, builder):
        bounds, _ = _sphere_bounds(257)
        bvh = builder(bounds, leaf_size=4)
        leaves = np.flatnonzero(bvh.leaf_mask)
        all_prims = np.concatenate([bvh.leaf_primitives(int(i)) for i in leaves])
        assert sorted(all_prims.tolist()) == list(range(257))

    def test_leaf_size_respected(self, builder):
        bounds, _ = _sphere_bounds(500)
        bvh = builder(bounds, leaf_size=8)
        assert bvh.prim_count[bvh.leaf_mask].max() <= 8

    def test_root_bounds_enclose_everything(self, builder):
        bounds, _ = _sphere_bounds(200)
        bvh = builder(bounds, leaf_size=4)
        assert (bvh.node_lower[0] <= bounds.lower.min(axis=0) + 1e-12).all()
        assert (bvh.node_upper[0] >= bounds.upper.max(axis=0) - 1e-12).all()

    def test_single_primitive(self, builder):
        bounds = AABB([[0, 0, 0]], [[1, 1, 1]])
        bvh = builder(bounds, leaf_size=4)
        bvh.validate()
        assert bvh.num_nodes == 1
        assert bvh.is_leaf(0)

    def test_duplicate_points(self, builder):
        centers = np.zeros((64, 3))
        bounds = AABB.from_spheres(centers, 0.1)
        bvh = builder(bounds, leaf_size=4)
        bvh.validate()
        assert bvh.prim_count[bvh.leaf_mask].max() <= 4

    def test_empty_raises(self, builder):
        with pytest.raises(ValueError):
            builder(AABB(np.empty((0, 3)), np.empty((0, 3))))

    def test_bad_leaf_size_raises(self, builder):
        bounds, _ = _sphere_bounds(10)
        with pytest.raises(ValueError):
            builder(bounds, leaf_size=0)

    def test_memory_bytes_positive(self, builder):
        bounds, _ = _sphere_bounds(100)
        assert builder(bounds).memory_bytes() > 0

    @given(pts=arrays(np.float64, (40, 3), elements=coords),
           radius=st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_property_validate_random(self, builder, pts, radius):
        bvh = builder(AABB.from_spheres(pts, radius), leaf_size=3)
        bvh.validate()


class TestLBVHSpecifics:
    def test_balanced_depth(self):
        bounds, _ = _sphere_bounds(1024)
        bvh = build_lbvh(bounds, leaf_size=1)
        # A median-split tree over 1024 primitives has depth ~11.
        assert bvh.depth <= 12

    def test_build_stats_recorded(self):
        bounds, _ = _sphere_bounds(128)
        bvh = build_lbvh(bounds, leaf_size=4)
        assert bvh.build_stats["num_leaves"] == int(bvh.leaf_mask.sum())
        assert bvh.builder == "lbvh"

    def test_morton_63_bits(self):
        bounds, _ = _sphere_bounds(128)
        bvh = build_lbvh(bounds, leaf_size=4, morton_bits=63)
        bvh.validate()


class TestSAHSpecifics:
    def test_sah_cost_positive(self):
        bounds, _ = _sphere_bounds(256)
        assert sah_cost(build_sah(bounds)) > 0

    def test_sah_quality_not_worse_than_lbvh_by_much(self):
        bounds, _ = _sphere_bounds(2000, seed=3)
        c_sah = sah_cost(build_sah(bounds, leaf_size=4))
        c_lbvh = sah_cost(build_lbvh(bounds, leaf_size=4))
        assert c_sah <= c_lbvh * 1.5

    def test_leaf_occupancy_report(self):
        bounds, _ = _sphere_bounds(300)
        occ = leaf_occupancy(build_sah(bounds, leaf_size=4))
        assert occ["num_leaves"] > 0
        assert occ["max"] <= 4
        assert 0 < occ["mean"] <= 4


class TestRefit:
    def test_refit_after_eps_change(self):
        bounds, centers = _sphere_bounds(200, radius=0.2)
        bvh = build_lbvh(bounds, leaf_size=4)
        grown = AABB.from_spheres(centers, 0.8)
        refitted = refit(bvh, grown)
        refitted.validate()
        # The root must have grown accordingly.
        assert (refitted.node_upper[0] >= bvh.node_upper[0]).all()

    def test_refit_preserves_topology(self):
        bounds, centers = _sphere_bounds(100)
        bvh = build_lbvh(bounds, leaf_size=4)
        refitted = refit(bvh, AABB.from_spheres(centers, 1.0))
        np.testing.assert_array_equal(refitted.left, bvh.left)
        np.testing.assert_array_equal(refitted.prim_indices, bvh.prim_indices)

    @pytest.mark.parametrize("builder", [build_lbvh, build_sah, build_kdtree])
    def test_level_sweep_matches_per_node_reference(self, builder):
        """The level-synchronous sweep is byte-identical to a node-by-node walk."""
        bounds, centers = _sphere_bounds(500, seed=3, radius=0.3)
        bvh = builder(bounds, leaf_size=4)
        rng = np.random.default_rng(4)
        moved = centers.copy()
        idx = rng.choice(500, size=120, replace=False)
        moved[idx] = rng.uniform(-30, 30, size=(120, 3))  # some land far outside
        radii = np.where(np.arange(500) % 7 == 0, 0.0, 0.3)  # parked, zero-radius
        new_bounds = AABB.from_spheres(moved, radii)

        lower, upper = new_bounds.lower, new_bounds.upper
        ref_lower = np.empty_like(bvh.node_lower)
        ref_upper = np.empty_like(bvh.node_upper)

        def visit(node):
            l, r = bvh.left[node], bvh.right[node]
            if l == INVALID_NODE:
                prims = bvh.leaf_primitives(node)
                ref_lower[node] = lower[prims].min(axis=0)
                ref_upper[node] = upper[prims].max(axis=0)
                return
            visit(l)
            visit(r)
            ref_lower[node] = np.minimum(ref_lower[l], ref_lower[r])
            ref_upper[node] = np.maximum(ref_upper[l], ref_upper[r])

        visit(bvh.root)
        refitted = refit(bvh, new_bounds)
        assert refitted.node_lower.tobytes() == ref_lower.tobytes()
        assert refitted.node_upper.tobytes() == ref_upper.tobytes()
        refitted.validate()

    def test_refit_wrong_count_raises(self):
        bounds, _ = _sphere_bounds(50)
        bvh = build_lbvh(bounds)
        with pytest.raises(ValueError):
            refit(bvh, AABB(np.zeros((10, 3)), np.ones((10, 3))))
