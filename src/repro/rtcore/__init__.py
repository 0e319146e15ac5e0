"""Simulated RT hardware and OptiX/OWL-style programming model.

``RTDevice`` stands in for the RTX 2060 testbed; ``ScenePipeline`` reproduces
the OptiX pipeline of Fig. 2 (bounds program → hardware BVH build → hardware
traversal → Intersection program); ``owl`` offers the OWL-flavoured
facade the paper's implementation is written against.
"""

from .counters import LaunchStats
from .device import RTDevice
from .owl import OWLContext, OWLGeom, OWLGeomType, OWLGroup, owl_context_create
from .pipeline import ScenePipeline
from .programs import ProgramGroup, sphere_intersection_program

__all__ = [
    "LaunchStats",
    "RTDevice",
    "OWLContext",
    "OWLGeom",
    "OWLGeomType",
    "OWLGroup",
    "owl_context_create",
    "ScenePipeline",
    "ProgramGroup",
    "sphere_intersection_program",
]
