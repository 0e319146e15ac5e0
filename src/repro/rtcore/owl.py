"""OWL-style wrapper API.

The paper implements RT-DBSCAN against the OptiX Wrapper Library (OWL), which
exposes OptiX 7 through a small C API: create a context, declare a geometry
type with its bounds/intersection programs, instantiate a geometry, build a
group (acceleration structure), and launch a ray-generation program.  This
module provides the same vocabulary on top of :class:`ScenePipeline` so that
the example programs and the RT-DBSCAN implementation read like their OWL
counterparts.  It is a thin facade: all behaviour lives in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.sphere import SphereGeometry
from ..geometry.triangle import TriangleGeometry, tessellate_spheres
from .device import RTDevice
from .pipeline import ScenePipeline
from .programs import ProgramGroup, sphere_intersection_program

__all__ = ["OWLContext", "OWLGeomType", "OWLGeom", "OWLGroup", "owl_context_create"]


@dataclass
class OWLGeomType:
    """Declaration of a user geometry type and its device programs."""

    kind: str  # "spheres" or "triangles"
    programs: ProgramGroup | None = None
    name: str = "geom-type"

    def __post_init__(self) -> None:
        if self.kind not in ("spheres", "triangles"):
            raise ValueError("geometry kind must be 'spheres' or 'triangles'")


@dataclass
class OWLGeom:
    """A geometry instance: a geometry type bound to primitive data."""

    geom_type: OWLGeomType
    primitives: SphereGeometry | TriangleGeometry

    @property
    def num_primitives(self) -> int:
        return len(self.primitives)


@dataclass
class OWLGroup:
    """An acceleration-structure group over one geometry instance."""

    context: "OWLContext"
    geom: OWLGeom
    pipeline: ScenePipeline
    build_seconds: float = 0.0

    def _programs(self, programs: ProgramGroup | None) -> ProgramGroup:
        progs = programs or self.geom.geom_type.programs
        if progs is None:
            raise ValueError("no program group bound to this geometry type")
        return progs

    def launch_csr(self, points: np.ndarray, programs: ProgramGroup | None = None):
        """Launch ε-rays from ``points``; confirmed hits come back as CSR.

        Returns ``(indptr, indices, stats)``: row ``q`` lists the confirmed
        neighbours of ``points[q]`` in ascending order.
        """
        return self.pipeline.launch_csr_queries(points, self._programs(programs))

    def launch_counts(self, points: np.ndarray, programs: ProgramGroup | None = None):
        """Launch ε-rays from ``points`` and return per-ray confirmed-hit counts."""
        return self.pipeline.launch_count_queries(points, self._programs(programs))

    def refit_accel(self) -> float:
        """Refit the acceleration structure to the geometry's current bounds.

        Mirrors ``owlGroupRefitAccel``: cheaper than a rebuild, keeps the
        topology, and is what incremental / streaming callers use after
        moving primitives.  Returns the simulated refit time.
        """
        return self.pipeline.refit_accel()

    def release(self) -> None:
        self.pipeline.release()


@dataclass
class OWLContext:
    """Top-level OWL context bound to one simulated device."""

    device: RTDevice
    groups: list[OWLGroup] = field(default_factory=list)

    # -- geometry-type and geometry creation ---------------------------- #
    def create_sphere_geom_type(
        self, centers: np.ndarray, radius: float, *, exclude_self: bool = True,
        name: str = "eps-spheres",
    ) -> tuple[OWLGeomType, OWLGeom]:
        """Declare the paper's ε-sphere geometry with its Intersection program."""
        spheres = SphereGeometry(centers, radius)
        programs = ProgramGroup(
            intersection=sphere_intersection_program(
                spheres.centers, radius, exclude_self=exclude_self
            ),
            name=name,
            # Descriptor for the optional native (C) tier: the sphere program
            # above is ``d(centers[q], centers[p])² <= r²`` with an optional
            # index self filter, which the native BVH kernel replicates
            # bit-for-bit (see repro.rtcore.pipeline._native_sphere_query).
            payload={
                "native_sphere": {
                    "centers": spheres.centers,
                    "confirm_pts": spheres.centers,
                    "r2": float(radius) ** 2,
                    "exclude_self": bool(exclude_self),
                }
            },
        )
        geom_type = OWLGeomType(kind="spheres", programs=programs, name=name)
        return geom_type, OWLGeom(geom_type, spheres)

    def create_triangle_geom_type(
        self, centers: np.ndarray, radius: float, *, subdivisions: int = 0,
        exclude_self: bool = True, name: str = "tessellated-spheres",
    ) -> tuple[OWLGeomType, OWLGeom]:
        """Declare the Section VI-C triangle-tessellated sphere geometry."""
        from ..geometry.transforms import lift_to_3d

        lifted = lift_to_3d(np.asarray(centers, dtype=np.float64))
        tris = tessellate_spheres(lifted, radius, subdivisions=subdivisions)
        owners = tris.owners

        def intersection(query_idx: np.ndarray, prim_idx: np.ndarray) -> np.ndarray:
            d = lifted[query_idx] - lifted[owners[prim_idx]]
            hit = np.einsum("ij,ij->i", d, d) <= radius**2
            if exclude_self:
                hit &= query_idx != owners[prim_idx]
            return hit

        programs = ProgramGroup(intersection=intersection, name=name)
        geom_type = OWLGeomType(kind="triangles", programs=programs, name=name)
        return geom_type, OWLGeom(geom_type, tris)

    # -- group (acceleration structure) building ------------------------ #
    def build_group(
        self, geom: OWLGeom, *, builder: str = "lbvh", leaf_size: int = 4,
        chunk_size: int = 16384,
    ) -> OWLGroup:
        """Build the acceleration structure for a geometry instance."""
        pipeline = ScenePipeline(
            device=self.device, geometry=geom.primitives, builder=builder,
            leaf_size=leaf_size, chunk_size=chunk_size,
        )
        build_seconds = pipeline.build_accel()
        group = OWLGroup(context=self, geom=geom, pipeline=pipeline, build_seconds=build_seconds)
        self.groups.append(group)
        return group

    def destroy(self) -> None:
        """Release all groups owned by the context."""
        for group in self.groups:
            group.release()
        self.groups.clear()


def owl_context_create(device: RTDevice | None = None) -> OWLContext:
    """Create an OWL context on the given (or a default) simulated device."""
    return OWLContext(device=device or RTDevice())
