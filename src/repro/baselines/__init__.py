"""GPU DBSCAN baselines re-implemented for the comparison study.

FDBSCAN (with and without early exit), G-DBSCAN and CUDA-DClust+ — the three
GPU comparators of the paper's evaluation — instrumented with the same
operation counters and priced by the same simulated device as RT-DBSCAN.
"""

from .cuda_dclust import CUDADClustPlus, cuda_dclust_plus
from .fdbscan import FDBSCAN, fdbscan
from .gdbscan import GDBSCAN, gdbscan

__all__ = [
    "CUDADClustPlus",
    "cuda_dclust_plus",
    "FDBSCAN",
    "fdbscan",
    "GDBSCAN",
    "gdbscan",
]
