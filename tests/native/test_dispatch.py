"""Unit tests for the native-tier dispatcher.

The dispatcher is the single decision point between the numpy and compiled
kernel tiers: these tests pin its contract — the ``REPRO_NATIVE`` knob, the
``override`` context manager, the guarantee that ``off`` never invokes a
build, and the log-once / never-raise behaviour of a failed build.
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.api.registry import get_algorithm, get_backend
from repro.native import build, dispatch


@pytest.fixture()
def fresh_dispatch():
    """Run a test against pristine dispatcher state, then restore it."""
    dispatch._reset_for_testing()
    yield dispatch
    dispatch._reset_for_testing()


class TestModeResolution:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("0", "off"), ("false", "off"), ("OFF", "off"), ("no", "off"),
            ("1", "on"), ("true", "on"), ("ON", "on"), ("yes", "on"),
            ("auto", "auto"), ("", "auto"), ("weird", "auto"),
        ],
    )
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_NATIVE", value)
        assert dispatch.mode() == expected

    def test_unset_env_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert dispatch.mode() == "auto"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert dispatch.mode() == "off"
        with dispatch.override(True):
            assert dispatch.mode() == "on"
            with dispatch.override(False):
                assert dispatch.mode() == "off"
            assert dispatch.mode() == "on"
        assert dispatch.mode() == "off"


class TestContextLocalOverrides:
    def test_overrides_push_only_given_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
        with dispatch.overrides():
            assert (dispatch.mode(), dispatch.requested_threads()) == ("off", 8)
        with dispatch.overrides(native=True):
            assert (dispatch.mode(), dispatch.requested_threads()) == ("on", 8)
            with dispatch.overrides(native_threads=2):
                assert (dispatch.mode(), dispatch.requested_threads()) == ("on", 2)
            assert (dispatch.mode(), dispatch.requested_threads()) == ("on", 8)
        assert (dispatch.mode(), dispatch.requested_threads()) == ("off", 8)

    def test_another_threads_override_is_invisible(self, monkeypatch):
        """An override pushed in one thread never steers another's kernels."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def read(name):
            seen[name] = (dispatch.mode(), dispatch.requested_threads())

        def hold_overrides():
            with dispatch.override(True), dispatch.thread_override(2):
                read("holder")
                barrier.wait()  # the overrides are live ...
                barrier.wait()  # ... until the main thread has read its own

        holder = threading.Thread(target=hold_overrides)
        holder.start()
        barrier.wait()
        read("main")
        barrier.wait()
        holder.join(timeout=10)
        assert seen == {"holder": ("on", 2), "main": ("off", 8)}


class TestOffNeverBuilds:
    def test_no_build_attempt_when_off(self, monkeypatch, fresh_dispatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")

        def boom():  # pragma: no cover - must never run
            raise AssertionError("build attempted despite REPRO_NATIVE=0")

        monkeypatch.setattr(build, "load_kernels", boom)
        assert fresh_dispatch.kernels() is None
        assert fresh_dispatch.available() is False
        assert fresh_dispatch.active_tier() == "numpy"
        assert fresh_dispatch._state["attempted"] is False

    def test_override_false_never_builds(self, monkeypatch, fresh_dispatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)

        def boom():  # pragma: no cover - must never run
            raise AssertionError("build attempted despite override(False)")

        monkeypatch.setattr(build, "load_kernels", boom)
        with fresh_dispatch.override(False):
            assert fresh_dispatch.kernels() is None
            assert fresh_dispatch._state["attempted"] is False


class TestFailedBuildFallsBack:
    def test_failure_is_recorded_and_logged_once(
        self, monkeypatch, caplog, fresh_dispatch
    ):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)

        def broken():
            raise RuntimeError("cc: command not found")

        monkeypatch.setattr(build, "load_kernels", broken)
        with caplog.at_level(logging.WARNING, logger="repro.native"):
            assert fresh_dispatch.kernels() is None
            assert fresh_dispatch.kernels() is None  # second call: cached, silent
        warnings = [r for r in caplog.records if "unavailable" in r.getMessage()]
        assert len(warnings) == 1
        assert "cc: command not found" in warnings[0].getMessage()

        status = fresh_dispatch.status()
        assert status["built"] is False
        assert status["attempted"] is True
        assert "cc: command not found" in status["fallback_reason"]

    def test_status_reports_off_reason(self, monkeypatch, fresh_dispatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        status = fresh_dispatch.status()
        assert status["mode"] == "off"
        assert status["active"] is False
        assert "REPRO_NATIVE=0" in status["fallback_reason"]


class TestRegistryMetadata:
    def test_native_capable_backends_are_tagged(self):
        # Every registered backend has a compiled implementation of its hot
        # loop (kdtree via the shared BVH DFS).
        for name in ("rt", "grid", "brute", "kdtree"):
            assert get_backend(name).native, name

    def test_native_capable_algorithms_are_tagged(self):
        for name in ("rt-dbscan", "rt-dbscan-tiled", "streaming-rt-dbscan"):
            assert get_algorithm(name).supports_native, name
        assert not get_algorithm("classic").supports_native

    def test_spec_rejects_native_on_unsupporting_algorithm(self):
        from repro.api.spec import ClustererSpec

        with pytest.raises(ValueError, match="native"):
            ClustererSpec(algo="classic", eps=0.3, min_pts=5, native=True).resolve()

    def test_spec_routes_native_into_as_dict(self):
        from repro.api.spec import ClustererSpec

        spec = ClustererSpec(algo="rt-dbscan", eps=0.3, min_pts=5, native=False)
        assert spec.as_dict()["native"] is False
        assert ClustererSpec(algo="rt-dbscan", eps=0.3, min_pts=5).as_dict()["native"] is None


class TestModuleNaming:
    def test_module_name_is_content_addressed(self):
        name = build.module_name()
        assert name.startswith("_repro_kernels_")
        # Stable across calls: the name is a hash of the cdef + C source.
        assert build.module_name() == name

    def test_variants_get_distinct_names(self):
        omp = build.module_name(variant="omp")
        serial = build.module_name(variant="serial")
        assert omp != serial
        assert "_omp_" in omp and "_serial_" in serial
        # The default variant is the OpenMP build.
        assert build.module_name() == omp


class TestThreadResolution:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("auto", None), ("AUTO", None), ("", None),
            ("4", 4), ("1", 1), ("16", 16),
            # Zero, negatives and garbage collapse to auto, never raise.
            ("0", None), ("-3", None), ("garbage", None), ("2.5", None),
        ],
    )
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", value)
        assert dispatch.requested_threads() == expected

    def test_unset_env_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        assert dispatch.requested_threads() is None

    def test_thread_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
        assert dispatch.requested_threads() == 8
        with dispatch.thread_override(2):
            assert dispatch.requested_threads() == 2
            with dispatch.thread_override(None):
                assert dispatch.requested_threads() is None
            assert dispatch.requested_threads() == 2
        assert dispatch.requested_threads() == 8

    def test_resolve_is_one_when_tier_off(self, monkeypatch, fresh_dispatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
        assert fresh_dispatch.resolve_threads() == 1

    def test_resolve_matches_requested_when_openmp(self, monkeypatch, fresh_dispatch):
        nk = fresh_dispatch.kernels()
        if nk is None:
            pytest.skip("native tier unavailable")
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        expected = 3 if nk.has_openmp else 1
        assert fresh_dispatch.resolve_threads() == expected
        with fresh_dispatch.thread_override(None):
            auto = fresh_dispatch.resolve_threads()
            assert auto == (nk.openmp_max_threads() if nk.has_openmp else 1)
            assert auto >= 1

    def test_status_reports_thread_fields(self, monkeypatch, fresh_dispatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "5")
        status = fresh_dispatch.status()
        assert status["threads_env"] == "5"
        assert status["requested_threads"] == 5
        assert status["resolved_threads"] >= 1
        assert set(status["kernels"]) == {
            "grid_scan", "brute_block", "bvh_sphere", "confirm_pairs",
            "uf_union_edges",
        }
        if status["active"]:
            assert status["variant"] in ("omp", "serial")
            assert status["openmp"] is (status["variant"] == "omp")

    def test_spec_validates_native_threads(self):
        from repro.api.spec import ClustererSpec

        spec = ClustererSpec(algo="rt-dbscan", eps=0.3, min_pts=5, native_threads=2)
        spec.resolve()
        assert spec.as_dict()["native_threads"] == 2
        with pytest.raises(ValueError, match="native_threads"):
            ClustererSpec(algo="rt-dbscan", eps=0.3, min_pts=5, native_threads=0)
        with pytest.raises(ValueError, match="native_threads"):
            ClustererSpec(
                algo="classic", eps=0.3, min_pts=5, native_threads=2
            ).resolve()
