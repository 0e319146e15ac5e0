"""Tests for the simulated RT device and the OptiX-style pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency import csr_row_ids
from repro.geometry.sphere import SphereGeometry
from repro.geometry.triangle import tessellate_spheres
from repro.perf.cost_model import DeviceCostModel
from repro.perf.memory import DeviceMemoryError
from repro.rtcore.device import RTDevice
from repro.rtcore.pipeline import ScenePipeline
from repro.rtcore.programs import SphereProgram


def _sphere_scene(n=200, radius=0.5, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.column_stack([rng.uniform(-5, 5, (n, 2)), np.zeros(n)])
    return centers, SphereGeometry(centers, radius)


class TestRTDevice:
    def test_default_memory_capacity_is_6gb(self):
        dev = RTDevice()
        assert dev.memory.capacity_bytes == 6 * 1024**3

    def test_accel_build_unit_depends_on_rt_cores(self):
        with_rt = RTDevice(has_rt_cores=True)
        without = RTDevice(has_rt_cores=False)
        assert with_rt.accel_build_seconds(100_000) > without.accel_build_seconds(100_000)

    @pytest.mark.parametrize("has_rt_cores, unit", [(True, "rt"), (False, "sm")])
    def test_accel_refit_priced_on_its_unit_below_a_build(self, has_rt_cores, unit):
        dev = RTDevice(has_rt_cores=has_rt_cores)
        refit = dev.accel_refit_seconds(100_000)
        assert refit == dev.cost_model.refit_time_s(100_000, unit=unit)
        assert 0 < refit < dev.accel_build_seconds(100_000)

    def test_each_device_tracks_its_own_memory(self):
        small = RTDevice(cost_model=DeviceCostModel(device_memory_bytes=4096))
        other = RTDevice()
        assert small.memory.capacity_bytes == 4096
        small.memory.allocate("x", 1024)
        assert small.memory.used_bytes == 1024
        assert other.memory.used_bytes == 0
        with pytest.raises(DeviceMemoryError):
            small.memory.allocate("y", 4096)


class TestScenePipeline:
    def test_build_accel_charges_memory(self):
        centers, geom = _sphere_scene()
        dev = RTDevice()
        pipe = ScenePipeline(device=dev, geometry=geom)
        t = pipe.build_accel()
        assert t > 0
        assert dev.memory.used_bytes > 0
        pipe.release()
        assert dev.memory.used_bytes == 0

    def test_pipelines_sharing_a_device_book_memory_apart(self):
        dev = RTDevice()
        first = ScenePipeline(device=dev, geometry=_sphere_scene(1000)[1])
        second = ScenePipeline(device=dev, geometry=_sphere_scene(500, seed=1)[1])
        first.build_accel()
        first_bytes = dev.memory.used_bytes
        second.build_accel()
        second_bytes = dev.memory.used_bytes - first_bytes
        assert first_bytes > second_bytes > 0
        first.release()
        assert dev.memory.used_bytes == second_bytes
        second.release()
        assert dev.memory.used_bytes == 0

    def test_launch_before_build_raises(self):
        centers, geom = _sphere_scene()
        pipe = ScenePipeline(device=RTDevice(), geometry=geom)
        with pytest.raises(RuntimeError, match="build_accel"):
            pipe.launch_csr_queries(centers, SphereProgram(centers, 0.5))

    def test_unknown_builder_raises(self):
        centers, geom = _sphere_scene()
        pipe = ScenePipeline(device=RTDevice(), geometry=geom, builder="bad")
        with pytest.raises(ValueError, match="builder"):
            pipe.build_accel()

    def test_csr_queries_match_brute_force(self):
        centers, geom = _sphere_scene(150, radius=0.8)
        dev = RTDevice()
        pipe = ScenePipeline(device=dev, geometry=geom)
        pipe.build_accel()
        program = SphereProgram(centers, 0.8, self_map=np.arange(len(centers)))
        indptr, indices, stats = pipe.launch_csr_queries(centers, program)
        got = set(zip(csr_row_ids(indptr).tolist(), indices.tolist()))
        d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        exp_q, exp_p = np.nonzero((d2 <= 0.8**2) & ~np.eye(len(centers), dtype=bool))
        assert got == set(zip(exp_q.tolist(), exp_p.tolist()))
        assert stats.confirmed_hits == len(got)
        assert stats.simulated_seconds > 0

    def test_count_queries_match_csr_queries(self):
        centers, geom = _sphere_scene(120, radius=0.6)
        pipe = ScenePipeline(device=RTDevice(), geometry=geom)
        pipe.build_accel()
        program = SphereProgram(centers, 0.6, self_map=np.arange(len(centers)))
        counts, count_stats = pipe.launch_count_queries(centers, program)
        indptr, _, csr_stats = pipe.launch_csr_queries(centers, program)
        np.testing.assert_array_equal(counts, np.diff(indptr))
        assert count_stats.counts == csr_stats.counts

    def test_no_rt_cores_charges_sm_visits(self):
        centers, geom = _sphere_scene(80)
        dev = RTDevice(has_rt_cores=False)
        pipe = ScenePipeline(device=dev, geometry=geom)
        pipe.build_accel()
        _, _, stats = pipe.launch_csr_queries(centers, SphereProgram(centers, 0.5))
        assert stats.counts.sm_node_visits > 0
        assert stats.counts.rt_node_visits == 0
        assert stats.simulated_seconds == dev.cost_model.time_s(stats.counts)

    def test_memory_exhaustion_raises(self):
        centers, geom = _sphere_scene(1000)
        small = DeviceCostModel(device_memory_bytes=1000)
        dev = RTDevice(cost_model=small)
        pipe = ScenePipeline(device=dev, geometry=geom)
        with pytest.raises(DeviceMemoryError):
            pipe.build_accel()

    def test_sphere_scene_round_trip(self):
        centers, geom = _sphere_scene(150, radius=0.4)
        dev = RTDevice()
        pipe = ScenePipeline(device=dev, geometry=geom)
        assert pipe.num_primitives == 150
        assert pipe.build_accel() > 0
        indptr, indices, stats = pipe.launch_csr_queries(
            centers, SphereProgram(centers, 0.4, self_map=np.arange(150))
        )
        assert stats.num_rays == 150
        assert indices.size > 0
        # Self hits are excluded.
        assert not np.any(csr_row_ids(indptr) == indices)
        pipe.release()
        assert dev.memory.used_bytes == 0

    def test_triangle_scene(self):
        centers, _ = _sphere_scene(40, seed=3)
        tris = tessellate_spheres(centers, 0.5, subdivisions=0)
        pipe = ScenePipeline(device=RTDevice(), geometry=tris)
        assert pipe.is_triangle_mode
        assert pipe.num_primitives == 40 * 20
        pipe.build_accel()
        program = SphereProgram(centers, 0.5, self_map=np.arange(40), owners=tris.owners)
        _, indices, stats = pipe.launch_csr_queries(centers, program)
        # Triangle-mode hits are mapped back to owner data points.
        assert indices.size > 0
        assert indices.max() < 40
        assert stats.anyhit_calls >= stats.confirmed_hits


class TestSphereProgram:
    def test_self_map_drops_only_the_own_id(self):
        """Three coincident points: a query drops its own id, never a twin."""
        centers = np.zeros((3, 3))
        external = SphereProgram(centers, 1.0).confirm(centers)
        dataset = SphereProgram(centers, 1.0, self_map=np.arange(3)).confirm(centers)
        q = np.array([0, 0, 1])
        p = np.array([0, 2, 1])
        assert external(q, p).tolist() == [True, True, True]
        assert dataset(q, p).tolist() == [False, True, False]

    def test_distance_filtering(self):
        centers = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        confirm = SphereProgram(centers, 1.0).confirm(centers)
        assert confirm(np.array([0]), np.array([1])).tolist() == [False]

    def test_confirm_is_exact_distance_test(self):
        centers = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        pts = np.array([[0.5, 0, 0], [0.5, 0, 0], [4.5, 0, 0]])
        confirm = SphereProgram(centers, 1.0).confirm(pts)
        hits = confirm(np.arange(3), np.array([0, 1, 1]))
        assert hits.tolist() == [True, False, True]

    def test_slot_filters(self):
        centers = np.zeros((4, 3))
        active = np.array([True, True, False, True])
        program = SphereProgram(centers, 1.0, self_map=np.array([1, 3]), active=active)
        confirm = program.confirm(centers[[1, 3]])
        q = np.array([0, 0, 0, 1, 1])
        p = np.array([0, 1, 2, 1, 3])
        assert confirm(q, p).tolist() == [True, False, False, True, False]
