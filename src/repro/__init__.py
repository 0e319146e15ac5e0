"""repro — a reproduction of RT-DBSCAN (Nagarajan & Kulkarni, IPDPS 2023).

RT-DBSCAN accelerates DBSCAN's fixed-radius neighbour searches by reducing
them to ray-tracing queries executed on GPU RT cores.  This package rebuilds
the complete system in Python on top of a *simulated* RT device:

* :mod:`repro.api`     — the unified estimator API: ``Clusterer`` protocol,
  algorithm/backend registries and the one-call ``repro.cluster`` facade;
* :mod:`repro.geometry` / :mod:`repro.bvh` — the spatial substrate (AABBs,
  spheres, Morton codes, LBVH/SAH builders, batched traversal);
* :mod:`repro.rtcore`  — the simulated RT-capable GPU, its OptiX-style scene
  pipeline and the sphere Intersection program;
* :mod:`repro.neighbors` — RT-FindNeighborhood (the paper's Algorithm 2) plus
  grid/KD-tree/brute searches behind the pluggable ``NeighborBackend``
  protocol;
* :mod:`repro.dbscan`  — RT-DBSCAN (Algorithm 3, on any backend) and the
  sequential oracle;
* :mod:`repro.baselines` — the GPU comparators (FDBSCAN, G-DBSCAN,
  CUDA-DClust+);
* :mod:`repro.streaming` — incremental window clustering over point streams
  with refit-aware scene maintenance;
* :mod:`repro.partition` — the scale-out layer: spatial tiling with ε-halo
  ghost regions, shard-local clustering with an exact boundary merge, and
  the shared serial/thread ``ParallelMap`` executor;
* :mod:`repro.data`    — synthetic equivalents of the paper's datasets and
  chunked stream generators;
* :mod:`repro.perf` / :mod:`repro.metrics` / :mod:`repro.bench` — cost model,
  agreement metrics and the per-figure benchmark harness.

Quickstart
----------
>>> import repro
>>> from repro.data import make_blobs
>>> points, _ = make_blobs(2000, centers=4, std=0.2, seed=7)
>>> result = repro.cluster(points, eps=0.3, min_pts=10)
>>> result.num_clusters
4
>>> repro.cluster(points, "rt-dbscan", eps=0.3, min_pts=10,
...               backend="kdtree").num_clusters
4
"""

from .api import (
    Clusterer,
    ClustererSpec,
    cluster,
    list_algorithms,
    list_backends,
    make_backend,
    make_clusterer,
    register_algorithm,
    register_backend,
)
from .baselines import CUDADClustPlus, FDBSCAN, GDBSCAN, cuda_dclust_plus, fdbscan, gdbscan
from .dbscan import (
    RTDBSCAN,
    ClassicDBSCAN,
    DBSCANParams,
    DBSCANResult,
    classic_dbscan,
    rt_dbscan,
)
from .neighbors import NeighborBackend, RTNeighborFinder, rt_find_neighbors
from .partition import ParallelMap, Tiler, TiledRTDBSCAN, tiled_rt_dbscan
from .perf import DEFAULT_COST_MODEL, DeviceCostModel
from .rtcore import RTDevice
from .streaming import RefitPolicy, StreamingRTDBSCAN, StreamUpdate

__version__ = "1.8.0"

__all__ = [
    "cluster",
    "Clusterer",
    "ClustererSpec",
    "list_algorithms",
    "list_backends",
    "make_backend",
    "make_clusterer",
    "register_algorithm",
    "register_backend",
    "CUDADClustPlus",
    "FDBSCAN",
    "GDBSCAN",
    "cuda_dclust_plus",
    "fdbscan",
    "gdbscan",
    "RTDBSCAN",
    "ClassicDBSCAN",
    "DBSCANParams",
    "DBSCANResult",
    "classic_dbscan",
    "rt_dbscan",
    "NeighborBackend",
    "RTNeighborFinder",
    "rt_find_neighbors",
    "ParallelMap",
    "Tiler",
    "TiledRTDBSCAN",
    "tiled_rt_dbscan",
    "DEFAULT_COST_MODEL",
    "DeviceCostModel",
    "RTDevice",
    "RefitPolicy",
    "StreamingRTDBSCAN",
    "StreamUpdate",
    "__version__",
]
