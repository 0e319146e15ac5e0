"""Ablation — acceleration-structure builder and device configuration.

Not a figure from the paper, but an ablation ``docs/paper_mapping.md`` lists: how much of
RT-DBSCAN's advantage comes from the hardware traversal (RT cores present vs
the same pipeline with BVH work priced at shader-core rates, which is how
OptiX falls back on GPUs without RT cores), and how sensitive the result is
to the BVH builder (LBVH vs binned SAH) and leaf size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.registry import generate
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.neighbors.knn import suggest_eps
from repro.rtcore.device import RTDevice


@pytest.fixture(scope="module")
def iono_points():
    return generate("3diono", 8_000, seed=7)


@pytest.fixture(scope="module")
def iono_eps(iono_points):
    return suggest_eps(iono_points, min_pts=50, quantile=0.3)


def test_rt_cores_vs_software_fallback(benchmark, iono_points, iono_eps):
    def run():
        with_rt = RTDBSCAN(eps=iono_eps, min_pts=50, device=RTDevice(has_rt_cores=True))
        without_rt = RTDBSCAN(eps=iono_eps, min_pts=50, device=RTDevice(has_rt_cores=False))
        return with_rt.fit(iono_points), without_rt.fit(iono_points)

    hw, sw = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nRT cores: {hw.report.total_simulated_seconds * 1e3:.3f} ms   "
          f"software fallback: {sw.report.total_simulated_seconds * 1e3:.3f} ms")
    # The same pipeline without RT cores is slower, and the labelling is identical.
    assert sw.report.total_simulated_seconds > hw.report.total_simulated_seconds
    np.testing.assert_array_equal(hw.labels, sw.labels)


@pytest.mark.parametrize("builder", ["lbvh", "sah"])
@pytest.mark.parametrize("leaf_size", [2, 8])
def test_builder_and_leaf_size_ablation(benchmark, iono_points, iono_eps, builder, leaf_size):
    result = benchmark.pedantic(
        lambda: RTDBSCAN(
            eps=iono_eps, min_pts=50, builder=builder, leaf_size=leaf_size
        ).fit(iono_points),
        rounds=1,
        iterations=1,
    )
    reference = RTDBSCAN(eps=iono_eps, min_pts=50).fit(iono_points)
    print(f"\nbuilder={builder} leaf_size={leaf_size}: "
          f"{result.report.total_simulated_seconds * 1e3:.3f} ms "
          f"(clusters={result.num_clusters})")
    # The clustering output must not depend on the acceleration structure.
    np.testing.assert_array_equal(result.labels, reference.labels)
    assert result.report.total_simulated_seconds > 0
