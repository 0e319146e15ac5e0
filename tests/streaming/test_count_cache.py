"""The precondition seeded streaming queries rest on: the cached counts are exact.

The engine hands ``_counts[rows]`` to the scene as ``row_counts`` for its
eviction, promotion and re-clustering queries, and a seeded fill is only
correct if each cached count equals the slot's live ε-neighbour count.  This
property holds the engine to that after every update, on the RT and a host
scene, on both kernel tiers, across a snapshot/restore mid-feed, by comparing
the cache with the row lengths of an unseeded scene query over the window.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import calibrate_eps
from repro.data.stream import make_stream
from repro.native import dispatch
from repro.streaming import StreamingRTDBSCAN

TIERS = [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        not dispatch.available(), reason="native kernel tier unavailable")),
]


def _assert_counts_exact(engine: StreamingRTDBSCAN, native: bool) -> None:
    live = np.flatnonzero(engine._arrival >= 0)
    with dispatch.override(native):
        indptr, _, _ = engine.scene.query_csr(live)
    np.testing.assert_array_equal(engine._counts[live], np.diff(indptr))


@pytest.mark.parametrize("backend", ["rt", "grid"])
@pytest.mark.parametrize("native", TIERS)
@settings(max_examples=20, deadline=None)
@given(
    feed=st.sampled_from(["drift-blobs", "burst-hotspots", "ngsim-replay"]),
    chunk=st.integers(10, 60),
    window_chunks=st.integers(1, 4),
    min_pts=st.integers(2, 8),
    restore_at=st.integers(0, 7),
    seed=st.integers(0, 2**16),
)
def test_cached_counts_equal_the_scene_row_lengths(
    backend, native, feed, chunk, window_chunks, min_pts, restore_at, seed
):
    chunks = list(make_stream(feed, 8, chunk, seed=seed))
    eps = calibrate_eps(np.vstack(chunks), min_pts, 0.3)
    # A window a few chunks wide, not always a whole number of them.
    window = window_chunks * chunk + seed % chunk
    engine = StreamingRTDBSCAN(eps, min_pts, window=window, backend=backend, native=native)
    for i, points in enumerate(chunks):
        engine.update(points)
        _assert_counts_exact(engine, native)
        if i == restore_at:
            snapshot = json.loads(json.dumps(engine.snapshot()))
            engine = StreamingRTDBSCAN.restore(snapshot)
            _assert_counts_exact(engine, native)
