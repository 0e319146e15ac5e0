"""Tests for repro.geometry.sphere and repro.geometry.triangle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.sphere import SphereGeometry
from repro.geometry.triangle import TriangleGeometry, icosphere, tessellate_spheres


class TestSphereGeometry:
    def test_scalar_radius_broadcast(self):
        g = SphereGeometry(np.zeros((4, 3)), 0.5)
        assert g.radii.shape == (4,)
        assert (g.radii == 0.5).all()

    def test_len(self):
        assert len(SphereGeometry(np.zeros((7, 3)), 1.0)) == 7

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            SphereGeometry(np.zeros((2, 3)), -1.0)

    def test_wrong_dim_raises(self):
        with pytest.raises(ValueError):
            SphereGeometry(np.zeros((2, 2)), 1.0)

    def test_bounds_enclose_spheres(self):
        centers = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
        g = SphereGeometry(centers, 0.5)
        box = g.bounds()
        np.testing.assert_allclose(box.lower[0], [-0.5, -0.5, -0.5])
        np.testing.assert_allclose(box.upper[1], [2.5, 2.5, 2.5])


class TestIcosphere:
    def test_base_icosahedron(self):
        verts, faces = icosphere(0)
        assert verts.shape == (12, 3)
        assert faces.shape == (20, 3)

    def test_subdivision_quadruples_faces(self):
        _, f0 = icosphere(0)
        _, f1 = icosphere(1)
        _, f2 = icosphere(2)
        assert len(f1) == 4 * len(f0)
        assert len(f2) == 4 * len(f1)

    def test_vertices_on_unit_sphere(self):
        verts, _ = icosphere(2)
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)

    def test_negative_subdivision_raises(self):
        with pytest.raises(ValueError):
            icosphere(-1)


class TestTessellateSpheres:
    def test_owner_mapping(self):
        centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        tris = tessellate_spheres(centers, 1.0, subdivisions=0)
        assert len(tris) == 3 * 20
        assert set(np.unique(tris.owners)) == {0, 1, 2}
        assert (np.bincount(tris.owners) == 20).all()

    def test_triangle_vertices_near_their_sphere(self):
        centers = np.array([[5.0, -3.0, 2.0]])
        tris = tessellate_spheres(centers, 2.0, subdivisions=1)
        v = tris.triangle_vertices().reshape(-1, 3)
        dist = np.linalg.norm(v - centers[0], axis=1)
        np.testing.assert_allclose(dist, 2.0, atol=1e-9)

    def test_bounds_per_triangle(self):
        centers = np.array([[0.0, 0.0, 0.0]])
        tris = tessellate_spheres(centers, 1.0, subdivisions=0)
        box = tris.bounds()
        assert len(box) == len(tris)
        assert (box.lower >= -1.0 - 1e-9).all()
        assert (box.upper <= 1.0 + 1e-9).all()

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            tessellate_spheres(np.zeros((1, 3)), -1.0)

    def test_invalid_owner_length_raises(self):
        with pytest.raises(ValueError):
            TriangleGeometry(np.zeros((3, 3)), np.array([[0, 1, 2]]), np.array([0, 1]))

    def test_face_index_out_of_range_raises(self):
        with pytest.raises(ValueError):
            TriangleGeometry(np.zeros((2, 3)), np.array([[0, 1, 2]]), np.array([0]))
