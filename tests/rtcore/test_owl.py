"""Tests for the OWL-style wrapper facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency import csr_row_ids
from repro.rtcore.device import RTDevice
from repro.rtcore.owl import OWLGeomType, owl_context_create


def _points(n=150, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, size=(n, 2))


class TestOWLContext:
    def test_context_uses_default_device(self):
        ctx = owl_context_create()
        assert isinstance(ctx.device, RTDevice)

    def test_invalid_geom_kind_raises(self):
        with pytest.raises(ValueError):
            OWLGeomType(kind="boxes")

    def test_sphere_geom_roundtrip(self):
        pts = _points()
        ctx = owl_context_create()
        geom_type, geom = ctx.create_sphere_geom_type(
            np.column_stack([pts, np.zeros(len(pts))]), 0.4
        )
        assert geom_type.kind == "spheres"
        assert geom.num_primitives == len(pts)
        group = ctx.build_group(geom)
        assert group.build_seconds > 0
        indptr, indices, stats = group.launch_csr(np.column_stack([pts, np.zeros(len(pts))]))
        assert stats.num_rays == len(pts)
        # Self hits are excluded by default.
        assert not np.any(csr_row_ids(indptr) == indices)
        ctx.destroy()
        assert ctx.device.memory.used_bytes == 0

    def test_launch_counts_equals_csr_row_lengths(self):
        pts = np.column_stack([_points(100, seed=2), np.zeros(100)])
        ctx = owl_context_create()
        _, geom = ctx.create_sphere_geom_type(pts, 0.5)
        group = ctx.build_group(geom)
        counts, _ = group.launch_counts(pts)
        indptr, _, _ = group.launch_csr(pts)
        np.testing.assert_array_equal(counts, np.diff(indptr))

    def test_triangle_geom_type(self):
        pts = np.column_stack([_points(40, seed=3), np.zeros(40)])
        ctx = owl_context_create()
        geom_type, geom = ctx.create_triangle_geom_type(pts, 0.5, subdivisions=0)
        assert geom_type.kind == "triangles"
        assert geom.num_primitives == 40 * 20
        group = ctx.build_group(geom)
        _, indices, stats = group.launch_csr(pts)
        # Triangle-mode hits are mapped back to owner data points.
        assert indices.max(initial=-1) < 40
        assert stats.anyhit_calls >= stats.confirmed_hits

    def test_triangle_hits_match_sphere_hits(self):
        pts = np.column_stack([_points(60, seed=4), np.zeros(60)])
        ctx = owl_context_create()
        _, sphere_geom = ctx.create_sphere_geom_type(pts, 0.6)
        _, tri_geom = ctx.create_triangle_geom_type(pts, 0.6, subdivisions=0)
        sphere_group = ctx.build_group(sphere_geom)
        tri_group = ctx.build_group(tri_geom)
        sphere_ptr, sphere_idx, _ = sphere_group.launch_csr(pts)
        tri_ptr, tri_idx, _ = tri_group.launch_csr(pts)
        np.testing.assert_array_equal(tri_ptr, sphere_ptr)
        np.testing.assert_array_equal(tri_idx, sphere_idx)

    def test_group_without_programs_raises(self):
        pts = np.column_stack([_points(10), np.zeros(10)])
        ctx = owl_context_create()
        _, geom = ctx.create_sphere_geom_type(pts, 0.3)
        geom.geom_type.programs = None
        group = ctx.build_group(geom)
        with pytest.raises(ValueError, match="program group"):
            group.launch_csr(pts)
