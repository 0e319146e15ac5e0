"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.synthetic import make_blobs, make_uniform_noise

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a test extra
    settings = None

if settings is not None:
    # "ci": no deadline (shared runners have unpredictable timing) and
    # derandomised examples, so property tests cannot flake on CI; "dev"
    # keeps the library defaults, including random exploration.  Selected
    # via HYPOTHESIS_PROFILE (the CI workflow sets it to "ci").
    settings.register_profile("ci", deadline=None, derandomize=True)
    settings.register_profile("dev", settings.default)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def blob_points() -> np.ndarray:
    """Three well-separated Gaussian blobs plus background noise (2D)."""
    pts, _ = make_blobs(600, centers=np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 4.0]]),
                        std=0.25, seed=7)
    noise = make_uniform_noise(60, low=-2.0, high=6.0, dim=2, seed=8)
    return np.vstack([pts, noise])


@pytest.fixture(scope="session")
def blob_points_3d() -> np.ndarray:
    """Three well-separated Gaussian blobs in 3D."""
    pts, _ = make_blobs(
        500,
        centers=np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 1.0], [2.0, 4.0, -1.0]]),
        std=0.3,
        seed=11,
    )
    return pts


@pytest.fixture(scope="session")
def boundary_eps() -> float:
    """An ε for which ``eps ** 2`` rounds below ``eps * eps``.

    Python's float ``**`` goes through libm ``pow``, which rounds one ulp
    away from the product for a small share of radii.  Points exactly ε
    apart (squared distance ``eps * eps``) are neighbours on every layer
    only if each one compares against the same r², ``eps * eps``; a layer
    that used ``eps ** 2`` would drop them for this ε.  This is the first
    such value of a fixed seeded sequence.  A host whose ``pow`` never
    rounds below the product falls back to 7.813052870977749, which still
    puts pairs on the ε boundary.
    """
    for eps in np.random.default_rng(0).uniform(1.0, 10.0, 100_000).tolist():
        if eps**2 < eps * eps:
            return eps
    return 7.813052870977749


@pytest.fixture(scope="session")
def random_points_2d(rng) -> np.ndarray:
    return rng.uniform(-5.0, 5.0, size=(400, 2))


@pytest.fixture(scope="session")
def random_points_3d(rng) -> np.ndarray:
    return rng.uniform(-5.0, 5.0, size=(400, 3))


# --------------------------------------------------------------------------- #
# Service-layer fixtures (tests/service/).  The service is asyncio-based but
# the suite runs plain pytest, so every test drives its coroutine through the
# ``run`` fixture (a fresh event loop per test — no pytest-asyncio
# dependency).  ``FakeClock`` replaces ``time.monotonic`` in TTL/eviction
# tests so idle time is advanced explicitly rather than slept.  These live in
# the top-level conftest because pytest imports same-named ``conftest``
# modules from rootdir-anchored test trees into one namespace.
class FakeClock:
    """Manually-advanced monotonic clock."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _make_service_config(**overrides):
    """A small, fast service config for tests (sliding window of 300)."""
    from repro.api import ClustererSpec
    from repro.service import ServiceConfig

    spec = overrides.pop(
        "spec",
        ClustererSpec(algo="streaming-rt-dbscan", eps=0.4, min_pts=5,
                      params={"window": 300}),
    )
    return ServiceConfig(spec=spec, **overrides)


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def run():
    """Run one coroutine to completion on a fresh event loop."""
    import asyncio

    return asyncio.run


@pytest.fixture
def make_config():
    return _make_service_config
