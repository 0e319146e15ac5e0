"""Forced-fallback behaviour: REPRO_NATIVE=0 must be a pure-numpy world.

Two guarantees are pinned here.  First, results are *identical* with the
native tier disabled — same labels, same core mask, same charged op counts —
because the native kernels are byte-exact re-implementations, not
approximations.  Second, disabling the tier really disables it: no compile is
attempted, no extension module is imported, and the tier reports ``numpy``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.native import dispatch

from test_parity import assert_results_identical

MIN_PTS = 8


@pytest.mark.skipif(not dispatch.available(), reason="native kernel tier unavailable")
class TestFallbackIsExact:
    @pytest.mark.parametrize("backend", ("grid", "brute", "rt", "kdtree"))
    def test_env_disabled_matches_native(self, monkeypatch, backend):
        pts = generate("blobs", 700, seed=11)
        eps = calibrate_eps(pts, MIN_PTS, 0.30)
        native_r = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=backend).fit(pts)

        monkeypatch.setenv("REPRO_NATIVE", "0")
        fallback_r = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=backend).fit(pts)

        assert native_r.extra["kernel_tier"] == "native"
        assert fallback_r.extra["kernel_tier"] == "numpy"
        assert_results_identical(native_r, fallback_r)

    def test_fallback_labels_are_sane(self, monkeypatch):
        """The numpy path still produces a real clustering, not a degenerate one."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        pts = generate("blobs", 700, seed=11)
        eps = calibrate_eps(pts, MIN_PTS, 0.30)
        result = RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend="grid").fit(pts)
        labels = result.labels
        assert labels.shape == (700,)
        assert labels.max() >= 0  # found at least one cluster
        assert np.all(labels[result.core_mask] >= 0)


class TestDisabledMeansDisabled:
    def test_no_build_attempt_in_subprocess(self, tmp_path):
        """A full fit under REPRO_NATIVE=0 must never touch the build machinery.

        Run in a subprocess so the check starts from a genuinely cold
        dispatcher (this test process may already have loaded the extension).
        """
        code = """
import sys
from repro.data.registry import generate
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.native import dispatch

pts = generate("blobs", 300, seed=3)
result = RTDBSCAN(eps=0.05, min_pts=5, backend="grid").fit(pts)
assert result.extra["kernel_tier"] == "numpy", result.extra
assert dispatch._state["attempted"] is False, dispatch._state
assert not any(m.startswith("_repro_kernels_") for m in sys.modules), "extension imported"
print("OK")
"""
        env = dict(os.environ, REPRO_NATIVE="0", PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_opted_in_native_gates_fail_without_the_tier(self):
        """``REPRO_NATIVE_BENCH=1`` with no native tier fails the gate file.

        Skipping would let a run whose tier fell back to numpy pass without
        checking a single native cell.
        """
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ, REPRO_NATIVE="0", REPRO_NATIVE_BENCH="1", PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "benchmarks/test_native_kernels.py"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0, proc.stdout
        assert "native kernel tier is unavailable" in proc.stdout, proc.stdout


class TestNoOpenMPFallback:
    def test_serial_variant_builds_and_matches(self):
        """REPRO_NATIVE_NO_OPENMP=1 must select the serial C build — still the
        native tier, still byte-identical — not collapse to numpy.

        Run in a subprocess: the variant is chosen at first kernel load, so
        this process (which may hold the OpenMP build) cannot flip it.
        """
        code = """
import numpy as np
from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.native import dispatch

nk = dispatch.kernels()
assert nk is not None, dispatch.status()
status = dispatch.status()
assert status["variant"] == "serial", status
assert status["openmp"] is False, status
assert not nk.has_openmp
assert nk.resolve_threads() == 1
# A serial build honours thread requests by clamping them to 1.
with dispatch.thread_override(6):
    assert nk.resolve_threads() == 1

pts = generate("blobs", 700, seed=11)
eps = calibrate_eps(pts, 8, 0.30)
native_r = RTDBSCAN(eps=eps, min_pts=8, backend="grid", native=True).fit(pts)
numpy_r = RTDBSCAN(eps=eps, min_pts=8, backend="grid", native=False).fit(pts)
assert native_r.extra["kernel_tier"] == "native"
assert np.array_equal(native_r.labels, numpy_r.labels)
for pa, pb in zip(native_r.report.phases, numpy_r.report.phases):
    assert pa.counts.as_dict() == pb.counts.as_dict(), pa.name
print("OK")
"""
        env = dict(os.environ, REPRO_NATIVE_NO_OPENMP="1", PYTHONPATH="src")
        env.pop("REPRO_NATIVE", None)
        env.pop("REPRO_NATIVE_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
