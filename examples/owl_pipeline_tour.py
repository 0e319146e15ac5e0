#!/usr/bin/env python
"""A tour of the OWL-style ray-tracing pipeline underneath RT-DBSCAN.

The paper implements its neighbour search directly against OWL (the OptiX 7
Wrapper Library).  This example drives the simulated equivalent at the same
level of abstraction, mirroring the structure of an OWL host program:

1. create a context on the (simulated) RT device;
2. declare the ε-sphere geometry type with its Intersection program;
3. build the acceleration structure (the "group");
4. launch one infinitesimally short ray per point and collect the hits as a
   CSR adjacency (row ``q`` lists the neighbours of point ``q``);
5. read the hardware counters the timing model is built on;
6. repeat the launch with the Section VI-C triangle tessellation to see why
   the paper rejects that variant.

Run with:  python examples/owl_pipeline_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.data import make_blobs
from repro.rtcore import RTDevice, owl_context_create


def main() -> None:
    points_2d, _ = make_blobs(5_000, centers=6, std=0.25, box=8.0, seed=21)
    points = np.column_stack([points_2d, np.zeros(len(points_2d))])  # lift to 3D
    eps = 0.3

    # 1. Context -------------------------------------------------------- #
    device = RTDevice()
    context = owl_context_create(device)
    print(f"device: {device.name} (RT cores: {device.has_rt_cores}, "
          f"memory {device.memory.capacity_bytes / 2**30:.0f} GiB)")

    # 2./3. Geometry type, geometry and acceleration structure ---------- #
    _, sphere_geom = context.create_sphere_geom_type(points, eps)
    group = context.build_group(sphere_geom, builder="lbvh", leaf_size=4)
    print(f"sphere scene: {sphere_geom.num_primitives} primitives, "
          f"BVH build {group.build_seconds * 1e3:.3f} ms (simulated)")

    # 4. Launch ---------------------------------------------------------- #
    indptr, _, stats = group.launch_csr(points)
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
    _, tri_geom = context.create_triangle_geom_type(points, eps, subdivisions=0)
    tri_group = context.build_group(tri_geom)
    _, _, tri_stats = tri_group.launch_csr(points)
    print(f"\ntriangle tessellation: {tri_geom.num_primitives} primitives "
          f"(20 triangles per sphere)")
    print(f"  BVH build              {tri_group.build_seconds * 1e3:>11.3f} ms")
    print(f"  AnyHit calls           {tri_stats.anyhit_calls:>12,}")
    print(f"  simulated launch time  {tri_stats.simulated_seconds * 1e3:>11.3f} ms")
    slowdown = (tri_stats.simulated_seconds + tri_group.build_seconds) / (
        stats.simulated_seconds + group.build_seconds
    )
    print(f"  end-to-end slowdown vs sphere Intersection program: {slowdown:.1f}x "
          "(the paper measured 2x-5x)")

    context.destroy()


if __name__ == "__main__":
    main()
