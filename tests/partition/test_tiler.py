"""Tests for the spatial Tiler and the streaming capacity planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.transforms import lift_to_3d
from repro.partition.tiler import Tiler


class TestTilerValidation:
    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            Tiler(0.0)
        with pytest.raises(ValueError):
            Tiler(-1.0)

    def test_tiles_must_be_positive(self):
        with pytest.raises(ValueError):
            Tiler(0.5, tiles=0)

    def test_grid_must_be_three_positive_ints(self):
        with pytest.raises(ValueError):
            Tiler(0.5, grid=(2, 2))
        with pytest.raises(ValueError):
            Tiler(0.5, grid=(2, 0, 1))

    def test_halo_must_cover_eps(self):
        with pytest.raises(ValueError, match="halo"):
            Tiler(0.5, halo=0.25)
        assert Tiler(0.5, halo=0.75).halo == 0.75


class TestGridShape:
    def test_explicit_grid_wins(self, blob_points):
        assert Tiler(0.3, tiles=9, grid=(2, 1, 1)).grid_shape(blob_points) == (2, 1, 1)

    def test_degenerate_axes_never_split(self, blob_points):
        # 2D data is lifted to z = 0; z must stay unsplit.
        shape = Tiler(0.3, tiles=8).grid_shape(blob_points)
        assert shape[2] == 1
        assert int(np.prod(shape)) >= 8

    def test_single_tile(self, blob_points):
        assert Tiler(0.3, tiles=1).grid_shape(blob_points) == (1, 1, 1)

    def test_constant_data_collapses_to_one_tile(self):
        pts = np.zeros((50, 2))
        assert Tiler(0.5, tiles=4).grid_shape(pts) == (1, 1, 1)

    def test_longest_axis_splits_first(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(200, 2)) * np.array([10.0, 1.0])
        assert Tiler(0.1, tiles=2).grid_shape(pts) == (2, 1, 1)


class TestSplit:
    @pytest.mark.parametrize("tiles", [1, 2, 4, 6, 9])
    def test_ownership_is_a_partition(self, blob_points, tiles):
        split = Tiler(0.3, tiles=tiles).split(blob_points)
        owned = np.concatenate([t.owned for t in split])
        assert owned.size == blob_points.shape[0]
        assert np.array_equal(np.sort(owned), np.arange(blob_points.shape[0]))

    @pytest.mark.parametrize("tiles", [2, 4, 9])
    def test_halo_covers_every_eps_neighbourhood(self, blob_points, tiles):
        """Every ε-neighbour of an owned point must be locally visible."""
        eps = 0.45
        pts = lift_to_3d(blob_points)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        for tile in Tiler(eps, tiles=tiles).split(blob_points):
            local = set(tile.indices.tolist())
            for q in tile.owned:
                neighbours = np.flatnonzero(d2[q] <= eps * eps)
                assert set(neighbours.tolist()) <= local

    def test_halo_points_are_not_owned(self, blob_points):
        for tile in Tiler(0.3, tiles=4).split(blob_points):
            assert not set(tile.owned.tolist()) & set(tile.halo.tolist())

    def test_indices_puts_owned_first(self, blob_points):
        tile = Tiler(0.3, tiles=4).split(blob_points)[0]
        np.testing.assert_array_equal(tile.indices[: tile.num_owned], tile.owned)
        np.testing.assert_array_equal(tile.indices[tile.num_owned :], tile.halo)

    def test_empty_tiles_are_dropped(self):
        # Two distant clumps with a 3-tile split along x: the middle is empty.
        pts = np.vstack([np.zeros((10, 2)), np.full((10, 2), 30.0)])
        split = Tiler(0.5, grid=(3, 1, 1)).split(pts)
        assert len(split) == 2
        assert all(t.num_owned > 0 for t in split)

    def test_3d_data(self, blob_points_3d):
        split = Tiler(0.5, tiles=8).split(blob_points_3d)
        owned = np.concatenate([t.owned for t in split])
        assert owned.size == blob_points_3d.shape[0]

    def test_explicit_grid_on_degenerate_axis(self, blob_points):
        """An explicit grid splitting the zero-extent lifted z axis must not
        divide by zero; ownership collapses into the first z slab."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = Tiler(0.3, grid=(2, 2, 2)).split(blob_points)
        owned = np.concatenate([t.owned for t in split])
        assert np.array_equal(np.sort(owned), np.arange(blob_points.shape[0]))
        assert all(t.grid_pos[2] == 0 for t in split)

    def test_single_tile_owns_every_point(self, blob_points):
        (tile,) = Tiler(0.3, tiles=1).split(blob_points)
        assert np.array_equal(tile.owned, np.arange(blob_points.shape[0]))
        assert tile.num_halo == 0

    def test_summary_fields(self, blob_points):
        s = Tiler(0.3, tiles=4).split(blob_points)[0].summary()
        assert {"tile_id", "grid_pos", "num_owned", "num_halo"} <= set(s)
