"""Tiled partition layer: spatial shards, halo merge, parallel executor.

The scale-out decomposition for the RT-DBSCAN pipeline:

* :mod:`repro.partition.executor` — :class:`ParallelMap`, the shared
  serial/thread ordered-map executor used by tile fits and by the
  benchmark sweep runner;
* :mod:`repro.partition.tiler` — :class:`Tiler` splits a dataset into
  spatial tiles with ε-halo ghost regions;
* :mod:`repro.partition.tiled` — :class:`TiledRTDBSCAN` runs Algorithm 3
  independently per tile on any registered neighbour backend;
* :mod:`repro.partition.merge` — the halo boundary merge that stitches the
  shard results into labels bit-identical to an untiled run.
"""

from .executor import ParallelMap, as_parallel_map
from .merge import MergeResult, merge_tiles
from .tiled import TiledRTDBSCAN, TileJob, TileRunResult, run_tile, tiled_rt_dbscan
from .tiler import Tile, Tiler

__all__ = [
    "ParallelMap",
    "as_parallel_map",
    "MergeResult",
    "merge_tiles",
    "TiledRTDBSCAN",
    "TileJob",
    "TileRunResult",
    "run_tile",
    "tiled_rt_dbscan",
    "Tile",
    "Tiler",
]
