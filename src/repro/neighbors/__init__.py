"""Fixed-radius neighbour search primitives.

Contains the paper's RT-FindNeighborhood primitive (Algorithm 2) on top of
the simulated RT device, the exact brute-force oracle used by the tests, the
uniform-grid index used by the CUDA-DClust+ baseline, and kNN helpers for
ε selection.  All of them are unified behind the :class:`NeighborBackend`
protocol — registered as the ``rt`` / ``grid`` / ``kdtree`` / ``brute``
backends — so the DBSCAN pipeline can run on any search substrate
(see :mod:`repro.neighbors.backend`).
"""

from .backend import (
    BruteNeighborBackend,
    GridNeighborBackend,
    KDTreeNeighborBackend,
    NeighborBackend,
)
from .brute import (
    brute_force_neighbor_counts,
    brute_force_neighbors,
    pairwise_within,
    pairwise_within_blocks,
)
from .grid import UniformGrid
from .knn import knn_brute_force, kth_neighbor_distances, suggest_eps
from .rt_find import RTNeighborFinder, rt_find_neighbors

__all__ = [
    "NeighborBackend",
    "BruteNeighborBackend",
    "GridNeighborBackend",
    "KDTreeNeighborBackend",
    "brute_force_neighbor_counts",
    "brute_force_neighbors",
    "pairwise_within",
    "pairwise_within_blocks",
    "UniformGrid",
    "knn_brute_force",
    "kth_neighbor_distances",
    "suggest_eps",
    "RTNeighborFinder",
    "rt_find_neighbors",
]
