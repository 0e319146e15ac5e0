"""Pipeline program records.

The OptiX pipeline (Fig. 2 of the paper) is assembled from user programs:
RayGen generates rays, Intersection tests a ray against a custom primitive,
AnyHit records every hit, ClosestHit reports the nearest hit and Miss handles
rays that hit nothing.  BVH build and traversal are fixed-function and run on
the RT cores.  RT-DBSCAN binds only RayGen and Intersection (Section IV
disables AnyHit and ClosestHit to avoid their overhead), so the simulated
pipeline models just those two: a launch's query points play RayGen, and the
Intersection program is a plain Python callable with a documented vectorised
signature, so algorithms inject their clustering logic exactly where the
paper does.  The triangle-mode ablation's AnyHit cost is charged by the
pipeline itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "IntersectionProgram",
    "RayGenProgram",
    "ProgramGroup",
    "sphere_intersection_program",
]

#: An Intersection program maps candidate ``(query_idx, prim_idx)`` arrays to
#: a boolean "hit" array.  It runs on the shader cores on behalf of the RT
#: pipeline, once per candidate produced by the hardware traversal.
IntersectionProgram = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: A RayGen program produces the query points / rays for a launch.
RayGenProgram = Callable[[], np.ndarray]


@dataclass
class ProgramGroup:
    """The user programs bound to a geometry for a launch.

    ``payload`` carries optional launch descriptors, such as the
    ``native_sphere`` record the native tier replicates the sphere
    Intersection program from.
    """

    intersection: IntersectionProgram
    name: str = "program-group"
    payload: dict = field(default_factory=dict)


def sphere_intersection_program(
    centers: np.ndarray, radius: float, *, exclude_self: bool = False
) -> IntersectionProgram:
    """Build the paper's sphere Intersection program (Algorithm 2, lines 5–8).

    Confirms a candidate when the query point lies within ``radius`` of the
    candidate sphere's centre, optionally filtering the self-intersection
    (``q != s``) the way RT-DBSCAN does.

    Parameters
    ----------
    centers:
        ``(n, 3)`` sphere centres; query index ``i`` corresponds to the data
        point ``centers[i]`` so the self test is an index comparison.
    radius:
        The ε radius shared by all spheres.
    exclude_self:
        Whether to reject candidates where the query point *is* the sphere's
        own centre point.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    r2 = float(radius) ** 2

    def program(query_idx: np.ndarray, prim_idx: np.ndarray) -> np.ndarray:
        d = centers[query_idx] - centers[prim_idx]
        hit = np.einsum("ij,ij->i", d, d) <= r2
        if exclude_self:
            hit &= query_idx != prim_idx
        return hit

    return program
