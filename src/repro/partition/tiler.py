"""Spatial tiling with ε-halo ghost regions.

The scale-out decomposition for density clustering: split the bounding box of
the dataset into an axis-aligned grid of tiles, give every tile *ownership*
of the points that fall inside its box, and extend each tile with a **halo**
(ghost zone) of the points owned by neighbouring tiles that lie within ε of
the box.  Because a DBSCAN ε-query launched from an owned point can only ever
reach points within ε of the tile box, the owned ∪ halo set contains the
complete ε-neighbourhood of every owned point — which is what lets
:class:`~repro.partition.tiled.TiledRTDBSCAN` run the paper's Algorithm 3
independently per tile and still produce exact global results after the
boundary merge.

Ownership is a partition: every point belongs to exactly one tile
(half-open boxes, with the last tile along each axis closed), so per-tile ray
counts sum to exactly one ray per dataset point — the same stage-1/stage-2
launch totals as an untiled run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.transforms import lift_to_3d, validate_points

__all__ = ["Tile", "Tiler"]


@dataclass
class Tile:
    """One spatial shard: an owned box plus its ε-halo ghost points.

    Attributes
    ----------
    tile_id:
        Dense tile index (row-major over the grid).
    grid_pos:
        ``(i, j, k)`` position of the tile in the grid.
    lo, hi:
        Corners of the owned box in the lifted 3D space.
    owned:
        Global indices of the points this tile owns (ascending).
    halo:
        Global indices of ghost points: owned by other tiles but within the
        halo width of this tile's box (ascending).
    """

    tile_id: int
    grid_pos: tuple[int, int, int]
    lo: np.ndarray
    hi: np.ndarray
    owned: np.ndarray
    halo: np.ndarray

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    @property
    def num_halo(self) -> int:
        return int(self.halo.size)

    @property
    def indices(self) -> np.ndarray:
        """Global indices of the local working set, owned points first."""
        return np.concatenate([self.owned, self.halo])

    def summary(self) -> dict:
        return {
            "tile_id": self.tile_id,
            "grid_pos": tuple(self.grid_pos),
            "num_owned": self.num_owned,
            "num_halo": self.num_halo,
        }


@dataclass
class Tiler:
    """Splits a dataset into spatial tiles with ε-halo ghost regions.

    Parameters
    ----------
    eps:
        The DBSCAN ε the tiling must preserve; the halo width defaults to it.
    tiles:
        Target number of tiles.  The grid is factored over the data's axes
        greedily by extent (the longest axis is split first), so the actual
        tile count may slightly exceed the target; degenerate (zero-extent)
        axes are never split.
    grid:
        Explicit ``(nx, ny, nz)`` grid shape; overrides ``tiles``.
    halo:
        Ghost-zone width.  Must be ≥ ``eps`` — anything smaller would drop
        cross-boundary neighbours and break the exactness guarantee.
    """

    eps: float
    tiles: int = 4
    grid: tuple[int, int, int] | None = None
    halo: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise ValueError(f"eps must be a positive finite number, got {self.eps}")
        if self.grid is None and self.tiles < 1:
            raise ValueError(f"tiles must be a positive integer, got {self.tiles}")
        if self.grid is not None:
            grid = tuple(int(g) for g in self.grid)
            if len(grid) != 3 or any(g < 1 for g in grid):
                raise ValueError(f"grid must be three positive integers, got {self.grid}")
            self.grid = grid
        self.halo = float(self.halo) if self.halo is not None else float(self.eps)
        if self.halo < self.eps:
            raise ValueError(
                f"halo width {self.halo} is smaller than eps {self.eps}; "
                "the ghost zone must cover a full eps-neighbourhood"
            )

    # ------------------------------------------------------------------ #
    def grid_shape(self, points: np.ndarray) -> tuple[int, int, int]:
        """Grid dimensions for the given data (explicit ``grid`` wins).

        The target tile count is factored over the axes greedily: repeatedly
        split the axis whose per-tile extent is currently largest.  Axes with
        zero extent (constant coordinates, e.g. the lifted z of 2D data) are
        never split.
        """
        if self.grid is not None:
            return self.grid
        pts = lift_to_3d(validate_points(points))
        extent = pts.max(axis=0) - pts.min(axis=0)
        dims = [1, 1, 1]
        while int(np.prod(dims)) < self.tiles:
            per_tile = [e / d for e, d in zip(extent, dims)]
            axis = int(np.argmax(per_tile))
            if per_tile[axis] <= 0.0:
                break  # all remaining axes are degenerate
            dims[axis] += 1
        return (dims[0], dims[1], dims[2])

    def split(self, points: np.ndarray) -> list[Tile]:
        """Partition ``points`` into tiles with ε-halo ghost regions.

        Tiles that own no points are dropped; every point is owned by exactly
        one of the returned tiles.
        """
        pts = lift_to_3d(validate_points(points))
        n = pts.shape[0]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        dims = np.asarray(self.grid_shape(pts), dtype=np.intp)
        # A zero-extent axis cannot be split even if an explicit grid asks
        # for it: every point shares one coordinate there, so all ownership
        # collapses into the first slab (the surplus tiles own nothing and
        # are dropped below).  Infinite width encodes "unsplit" uniformly.
        extent = hi - lo
        width = np.where((dims > 1) & (extent > 0), extent / np.maximum(dims, 1), np.inf)

        # Ownership: half-open boxes along each axis, last box closed.
        cell = np.zeros((n, 3), dtype=np.intp)
        for d in range(3):
            if np.isfinite(width[d]):
                cell[:, d] = np.clip(
                    np.floor((pts[:, d] - lo[d]) / width[d]).astype(np.intp), 0, dims[d] - 1
                )
        flat = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]

        halo2 = self.halo * self.halo
        tiles: list[Tile] = []
        occupied = np.unique(flat)
        for tile_id, flat_id in enumerate(occupied):
            i, rem = divmod(int(flat_id), int(dims[1] * dims[2]))
            j, k = divmod(rem, int(dims[2]))
            pos = np.asarray([i, j, k], dtype=np.float64)
            finite_w = np.where(np.isfinite(width), width, 0.0)
            box_lo = lo + pos * finite_w
            box_hi = np.where(np.isfinite(width), box_lo + width, hi)
            owned = np.flatnonzero(flat == flat_id)
            # Point-to-box distance: componentwise clamp, then Euclidean.
            gap = np.maximum(np.maximum(box_lo - pts, pts - box_hi), 0.0)
            near = np.einsum("ij,ij->i", gap, gap) <= halo2
            halo = np.flatnonzero(near & (flat != flat_id))
            tiles.append(
                Tile(
                    tile_id=tile_id,
                    grid_pos=(i, j, k),
                    lo=box_lo,
                    hi=box_hi,
                    owned=owned,
                    halo=halo,
                )
            )
        return tiles
