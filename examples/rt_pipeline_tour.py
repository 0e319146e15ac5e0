#!/usr/bin/env python
"""A tour of the OptiX-style ray-tracing pipeline underneath RT-DBSCAN.

The paper implements its neighbour search against OptiX 7 through the OWL
wrapper library.  This example drives the simulated equivalent at the same
level of abstraction, mirroring the structure of such a host program:

1. create the (simulated) RT device;
2. declare the ε-sphere geometry and its sphere Intersection program;
3. build the acceleration structure;
4. launch one infinitesimally short ray per point and collect the hits as a
   CSR adjacency (row ``q`` lists the neighbours of point ``q``);
5. read the hardware counters the timing model is built on;
6. repeat the launch with the Section VI-C triangle tessellation to see why
   the paper rejects that variant.

Run with:  python examples/rt_pipeline_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.data import make_blobs
from repro.geometry.sphere import SphereGeometry
from repro.geometry.triangle import tessellate_spheres
from repro.rtcore import RTDevice, ScenePipeline, SphereProgram


def main() -> None:
    points_2d, _ = make_blobs(5_000, centers=6, std=0.25, box=8.0, seed=21)
    points = np.column_stack([points_2d, np.zeros(len(points_2d))])  # lift to 3D
    eps = 0.3

    # 1. Device --------------------------------------------------------- #
    device = RTDevice()
    print(f"device: {device.name} (RT cores: {device.has_rt_cores}, "
          f"memory {device.memory.capacity_bytes / 2**30:.0f} GiB)")

    # 2./3. Geometry, Intersection program and acceleration structure --- #
    spheres = SphereGeometry(points, eps)
    # Query q is the centre of sphere q, so it drops sphere q: the q != s filter.
    self_ids = np.arange(len(points))
    program = SphereProgram(points, eps, self_map=self_ids)
    pipeline = ScenePipeline(device=device, geometry=spheres, builder="lbvh", leaf_size=4)
    build_seconds = pipeline.build_accel()
    print(f"sphere scene: {pipeline.num_primitives} primitives, "
          f"BVH build {build_seconds * 1e3:.3f} ms (simulated)")

    # 4. Launch ---------------------------------------------------------- #
    indptr, _, stats = pipeline.launch_csr_queries(points, program)
    counts = np.diff(indptr)
    print(f"launched {stats.num_rays} epsilon-rays -> {stats.confirmed_hits} confirmed hits")
    print(f"mean neighbours per point: {counts.mean():.1f} (max {counts.max()})")

    # 5. Hardware counters ----------------------------------------------- #
    print("\nlaunch counters (what the cost model charges):")
    print(f"  BVH node visits        {stats.traversal.node_visits:>12,}")
    print(f"  leaf visits            {stats.traversal.leaf_visits:>12,}")
    print(f"  Intersection calls     {stats.intersection_calls:>12,}")
    print(f"  AnyHit calls           {stats.anyhit_calls:>12,}")
    print(f"  simulated launch time  {stats.simulated_seconds * 1e3:>11.3f} ms")

    # 6. Triangle mode (Section VI-C) ------------------------------------ #
    triangles = tessellate_spheres(points, eps, subdivisions=0)
    tri_pipeline = ScenePipeline(device=device, geometry=triangles)
    tri_build_seconds = tri_pipeline.build_accel()
    # Each triangle hit is confirmed against the sphere that owns it.
    tri_program = SphereProgram(points, eps, self_map=self_ids, owners=triangles.owners)
    _, _, tri_stats = tri_pipeline.launch_csr_queries(points, tri_program)
    print(f"\ntriangle tessellation: {tri_pipeline.num_primitives} primitives "
          f"(20 triangles per sphere)")
    print(f"  BVH build              {tri_build_seconds * 1e3:>11.3f} ms")
    print(f"  AnyHit calls           {tri_stats.anyhit_calls:>12,}")
    print(f"  simulated launch time  {tri_stats.simulated_seconds * 1e3:>11.3f} ms")
    slowdown = (tri_stats.simulated_seconds + tri_build_seconds) / (
        stats.simulated_seconds + build_seconds
    )
    print(f"  end-to-end slowdown vs sphere Intersection program: {slowdown:.1f}x "
          "(the paper measured 2x-5x)")

    pipeline.release()
    tri_pipeline.release()


if __name__ == "__main__":
    main()
