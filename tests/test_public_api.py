"""Smoke tests for the top-level public API surface."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.perf.cost_model import OpCounts


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_top_level_quickstart_flow(self):
        from repro.data import make_blobs

        points, _ = make_blobs(500, centers=3, std=0.2, seed=1)
        result = repro.rt_dbscan(points, eps=0.4, min_pts=5)
        assert result.num_clusters == 3
        reference = repro.classic_dbscan(points, eps=0.4, min_pts=5)
        np.testing.assert_array_equal(result.core_mask, reference.core_mask)

    def test_clusterer_classes_share_result_type(self):
        from repro.data import make_blobs

        points, _ = make_blobs(300, centers=2, std=0.2, seed=2)
        for cls in (repro.RTDBSCAN, repro.FDBSCAN, repro.GDBSCAN, repro.CUDADClustPlus):
            result = cls(eps=0.4, min_pts=5).fit(points)
            assert isinstance(result, repro.DBSCANResult)
            assert result.num_clusters == 2

    def test_device_is_shareable_between_algorithms(self):
        from repro.data import make_blobs

        points, _ = make_blobs(300, centers=2, std=0.2, seed=3)
        device = repro.RTDevice()
        rt = repro.RTDBSCAN(eps=0.4, min_pts=5, device=device).fit(points)
        fd = repro.FDBSCAN(eps=0.4, min_pts=5, device=device).fit(points)
        assert device.memory.used_bytes == 0
        rt_counts, fd_counts = (
            OpCounts.sum(p.counts for p in r.report.phases) for r in (rt, fd)
        )
        assert rt_counts.rt_node_visits > 0 and rt_counts.sm_node_visits == 0
        assert fd_counts.sm_node_visits > 0 and fd_counts.rt_node_visits == 0

    def test_default_cost_model_exported(self):
        assert repro.DEFAULT_COST_MODEL.device_memory_bytes == 6 * 1024**3

    def test_examples_are_importable(self):
        # The example scripts must at least parse and expose a main().
        import importlib.util
        import pathlib

        examples = pathlib.Path(__file__).resolve().parents[1] / "examples"
        scripts = sorted(examples.glob("*.py"))
        assert len(scripts) >= 3
        for script in scripts:
            spec = importlib.util.spec_from_file_location(script.stem, script)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)  # executes imports + defs only
            assert hasattr(module, "main"), script.name


class TestParamValidationAcrossAlgorithms:
    @pytest.mark.parametrize("factory", [
        lambda: repro.RTDBSCAN(eps=-1, min_pts=5),
        lambda: repro.FDBSCAN(eps=0.5, min_pts=0),
        lambda: repro.GDBSCAN(eps=float("nan"), min_pts=5),
        lambda: repro.CUDADClustPlus(eps=0.0, min_pts=5),
    ])
    def test_invalid_construction_raises(self, factory):
        with pytest.raises(ValueError):
            factory()
