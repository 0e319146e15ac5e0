"""StreamingScene, RefitPolicy and the refit plumbing through the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbscan.disjoint_set import ParallelDisjointSet
from repro.geometry.sphere import SphereGeometry
from repro.native import dispatch
from repro.perf.cost_model import DEFAULT_COST_MODEL, OpCounts
from repro.rtcore.device import RTDevice
from repro.rtcore.pipeline import ScenePipeline
from repro.streaming import RefitPolicy, StreamingScene, feed_capacity
from repro.streaming.scene import HostStreamingScene

TIERS = [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        not dispatch.available(), reason="native kernel tier unavailable")),
]


class TestCostModelRefit:
    def test_refit_prices_below_build(self):
        for unit in ("rt", "sm"):
            assert (
                DEFAULT_COST_MODEL.refit_time_s(10_000, unit=unit)
                < DEFAULT_COST_MODEL.build_time_s(10_000, unit=unit)
            )

    def test_refit_pays_no_pipeline_setup(self):
        # For tiny primitive counts the build is dominated by the fixed
        # OptiX setup cost, which refit must not pay.
        build = DEFAULT_COST_MODEL.build_time_s(1, unit="rt")
        refit = DEFAULT_COST_MODEL.refit_time_s(1, unit="rt")
        assert refit < build / 5

    def test_opcounts_tracks_refit_prims(self):
        counts = OpCounts(bvh_refit_prims=7)
        merged = OpCounts().merge(counts)
        assert merged.bvh_refit_prims == 7
        assert "bvh_refit_prims" in merged.as_dict()


class TestPipelineRefit:
    def test_refit_updates_bounds_and_charges_device(self):
        device = RTDevice()
        centers = np.random.default_rng(0).uniform(0, 5, size=(64, 3))
        geometry = SphereGeometry(centers, 0.4)
        pipeline = ScenePipeline(device=device, geometry=geometry)
        pipeline.build_accel()
        # Move a primitive, refit, and check the root bounds follow it.
        geometry.centers[0] = np.array([50.0, 50.0, 50.0])
        seconds = pipeline.refit_accel()
        assert seconds > 0
        bvh = pipeline.bvh
        assert bvh.node_upper[0][0] >= 50.0
        assert bvh.builder.endswith("+refit")
        assert device.total_counts.bvh_refit_prims == 64
        # Refitting again must not stack another "+refit" suffix.
        pipeline.refit_accel()
        assert pipeline.bvh.builder.count("+refit") == 1
        pipeline.release()


class TestRefitPolicy:
    def test_invalid_structure_forces_rebuild(self):
        policy = RefitPolicy(mode="refit")
        action = policy.choose(
            cost_model=DEFAULT_COST_MODEL, num_prims=100,
            churn_fraction=0.0, structure_valid=False,
        )
        assert action == "rebuild"

    def test_modes(self):
        kwargs = dict(cost_model=DEFAULT_COST_MODEL, num_prims=1000, churn_fraction=0.1)
        assert RefitPolicy(mode="rebuild").choose(**kwargs) == "rebuild"
        assert RefitPolicy(mode="refit").choose(**kwargs) == "refit"
        assert RefitPolicy(mode="auto").choose(**kwargs) == "refit"

    def test_auto_rebuilds_on_high_churn(self):
        policy = RefitPolicy(mode="auto", churn_rebuild_fraction=0.25)
        assert (
            policy.choose(cost_model=DEFAULT_COST_MODEL, num_prims=1000, churn_fraction=0.5)
            == "rebuild"
        )


class TestStreamingScene:
    def _scene(self, **kwargs) -> StreamingScene:
        return StreamingScene(0.5, RTDevice(), initial_capacity=16, **kwargs)

    @staticmethod
    def _line(xs) -> np.ndarray:
        return np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))]).astype(float)

    def test_add_recycles_lowest_slots_first(self):
        scene = self._scene()
        slots = scene.add(np.zeros((4, 3)))
        scene.commit(RefitPolicy())
        scene.deallocate(slots[[2, 0]])
        again = scene.add(self._line([5.0, 1.0, 3.0]))
        assert sorted(again) == [0, 2, 4]
        assert np.array_equal(scene.centers[again], self._line([5.0, 1.0, 3.0]))

    def test_add_pairs_slots_by_morton_rank_once_built(self):
        # Slot i holds x = i on a line, so the built tree orders the slots
        # by id along its Morton curve; slots 13-15 are parked slack, which
        # clips to the frame's far corner and sorts last.
        scene = self._scene()
        assert np.array_equal(scene.add(self._line(np.arange(13))), np.arange(13))
        scene.commit(RefitPolicy())
        scene.deallocate(np.array([3, 8]))
        # The slot set is still lowest-free-first then fresh ({3, 8, 13}),
        # but each arrival takes the slot of matching Morton rank.
        slots = scene.add(self._line([8.1, 20.0, 3.1]))
        assert list(slots) == [8, 13, 3]
        scene.deallocate(np.array([5, 6, 7]))
        slots = scene.add(self._line([6.9, 5.2, 6.1]))
        assert list(slots) == [7, 5, 6]

    def test_add_keeps_arrival_order_before_first_build(self):
        scene = self._scene()
        slots = scene.add(self._line([9.0, 1.0, 5.0]))
        assert list(slots) == [0, 1, 2]
        scene.deallocate(slots[[1]])
        assert list(scene.add(self._line([7.0, 2.0]))) == [1, 3]

    def test_add_keeps_arrival_order_while_growth_rebuild_pends(self):
        scene = self._scene()
        scene.add(self._line(np.arange(12)))
        scene.commit(RefitPolicy())
        scene.deallocate(np.array([2, 9]))
        # 2 recycled + 10 fresh slots overflow capacity 16: the tree is
        # invalid, so Morton ranks of the old build no longer apply.
        slots = scene.add(self._line(np.arange(12)[::-1]))
        assert list(slots) == [2, 9, *range(12, 22)]

    def test_host_scene_keeps_arrival_order(self):
        scene = HostStreamingScene(0.5, RTDevice(), initial_capacity=16)
        scene.add(self._line(np.arange(12)))
        scene.commit(RefitPolicy())
        scene.deallocate(np.array([3, 8]))
        assert list(scene.add(self._line([8.1, 20.0, 3.1]))) == [3, 8, 12]

    def test_growth_marks_rebuild(self):
        scene = self._scene()
        scene.add(np.random.default_rng(1).uniform(0, 1, (10, 3)))
        action, _, _ = scene.commit(RefitPolicy())
        assert action == "rebuild"
        scene.add(np.random.default_rng(2).uniform(0, 1, (20, 3)))  # exceeds capacity 16
        assert scene.capacity >= 30
        action, _, counts = scene.commit(RefitPolicy(mode="refit"))
        assert action == "rebuild"  # growth invalidates the topology
        assert counts.bvh_build_prims == scene.capacity

    def test_full_buffer_doubles_unless_the_chunk_needs_more(self):
        scene = self._scene()
        scene.add(np.zeros((17, 3)))
        assert scene.capacity == 32
        scene.add(np.zeros((125, 3)))  # 142 slots needed, more than 2 x 32
        assert scene.capacity == 142
        scene.add(np.zeros((1, 3)))
        assert scene.capacity == 284

    def test_parked_slots_never_hit(self):
        scene = self._scene()
        pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.6, 0.0, 0.0]])
        slots = scene.add(pts)
        scene.commit(RefitPolicy())
        scene.deallocate(slots[1:2])
        scene.commit(RefitPolicy())
        indptr, hits, _ = scene.query_csr(slots[[0, 2]])
        # With the middle sphere parked the remaining points are 0.6 apart —
        # beyond eps=0.5 — so no pair may survive, least of all one
        # involving the parked slot.
        assert indptr.tolist() == [0, 0, 0] and hits.size == 0

    def test_query_excludes_self_and_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 2, size=(40, 3))
        scene = StreamingScene(0.4, RTDevice(), initial_capacity=64)
        slots = scene.add(pts)
        scene.commit(RefitPolicy())
        indptr, hits, stats = scene.query_csr(slots)
        got = set(zip(np.repeat(slots, np.diff(indptr)).tolist(), hits.tolist()))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        expect = {
            (i, j)
            for i in range(40)
            for j in range(40)
            if i != j and d2[i, j] <= 0.4**2
        }
        assert got == expect
        assert stats.num_rays == 40

    @pytest.mark.parametrize("backend", ["rt", "grid", "kdtree", "brute"])
    @pytest.mark.parametrize("native", TIERS)
    def test_seeded_query_checks_its_row_counts(self, backend, native):
        """Exact ``row_counts`` change nothing; wrong ones raise on every scene."""
        pts = np.random.default_rng(7).uniform(0, 2, size=(60, 3))
        if backend == "rt":
            scene = StreamingScene(0.5, RTDevice())
        else:
            scene = HostStreamingScene(0.5, RTDevice(), backend=backend)
        slots = scene.add(pts)
        scene.commit(RefitPolicy())
        queries = slots[::2]
        with dispatch.override(native):
            indptr, hits, stats = scene.query_csr(queries)
            lens = np.diff(indptr)
            s_indptr, s_hits, s_stats = scene.query_csr(queries, lens)
            too_few = lens.copy()
            too_few[np.argmax(lens)] -= 1  # that row would overrun its slice
            for bad in (too_few, lens + 1, lens[:-1]):
                with pytest.raises(ValueError, match="row_counts"):
                    scene.query_csr(queries, bad)
        scene.release()
        assert s_indptr.tobytes() == indptr.tobytes()
        assert s_hits.tobytes() == hits.tobytes()
        assert s_stats.counts.as_dict() == stats.counts.as_dict()

    def test_empty_query_is_free(self):
        scene = self._scene()
        indptr, hits, stats = scene.query_csr(np.empty(0, dtype=np.intp))
        assert indptr.tolist() == [0] and hits.size == 0
        assert stats.counts.kernel_launches == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StreamingScene(0.0)
        with pytest.raises(ValueError):
            StreamingScene(0.5, initial_capacity=0)


class TestFeedCapacity:
    @pytest.mark.parametrize(
        "rows, window, chunk, expected",
        [
            (5000, None, 100, 5000),  # unbounded: the whole feed
            (5000, 1000, 100, 1100),  # the window plus one chunk
            (700, 1000, 100, 800),  # a feed shorter than its window
            (40, None, 40, 256),  # never below the scene's default capacity
            (40, 100, 40, 256),
        ],
    )
    def test_sizing_rule(self, rows, window, chunk, expected):
        assert feed_capacity(rows, window, chunk) == expected

    def test_floor_is_the_scene_default(self):
        assert feed_capacity(1, None, 1) == StreamingScene(0.5).capacity


class TestDisjointSetGrow:
    def test_grow_preserves_sets(self):
        forest = ParallelDisjointSet(4)
        forest.union_edges(np.array([0]), np.array([1]))
        forest.grow(8)
        assert len(forest) == 8
        assert forest.find(0) == forest.find(1)
        assert forest.find(6) == 6
        with pytest.raises(ValueError):
            forest.grow(2)
