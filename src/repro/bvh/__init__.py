"""Bounding volume hierarchy substrate.

Provides the acceleration structure the simulated RT device builds over the
ε-sphere scene: SoA node storage, an LBVH-style Morton builder (the hardware
analogue), a binned SAH builder (for quality ablations), batched point-query
traversal kernels with operation counters, and refit/quality helpers.
"""

from .kdtree import build_kdtree
from .lbvh import build_lbvh
from .node import INVALID_NODE, BVH
from .refit import leaf_occupancy, refit, sah_cost
from .sah import build_sah
from .traversal import (
    TraversalStats,
    point_query_counts,
    point_query_csr,
)

__all__ = [
    "BVH",
    "INVALID_NODE",
    "build_kdtree",
    "build_lbvh",
    "build_sah",
    "refit",
    "sah_cost",
    "leaf_occupancy",
    "TraversalStats",
    "point_query_counts",
    "point_query_csr",
]
