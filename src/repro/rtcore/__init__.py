"""Simulated RT hardware and the OptiX-style programming model.

``RTDevice`` stands in for the RTX 2060 testbed; ``ScenePipeline`` reproduces
the OptiX pipeline of Fig. 2 (bounds program → hardware BVH build → hardware
traversal → Intersection program); ``SphereProgram`` is the paper's sphere
Intersection program and ``launch_sphere`` the one launch function every
sphere query runs through, on the native or the numpy kernel tier.
"""

from .counters import LaunchStats
from .device import RTDevice
from .pipeline import ScenePipeline
from .programs import SphereProgram, launch_sphere

__all__ = [
    "LaunchStats",
    "RTDevice",
    "ScenePipeline",
    "SphereProgram",
    "launch_sphere",
]
