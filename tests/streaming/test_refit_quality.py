"""Refit tree quality: a refit-only window must stay close to a fresh tree.

Refit keeps the last build's topology, so how much it costs to traverse
depends on where the scene puts each arriving point.  Each point takes the
freed slot nearest it along the last build's Morton curve, which keeps the
stretched leaves short; handing out freed slots blindly lets every refit
stretch leaves, and their ancestors, across the whole window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments import calibrate_eps
from repro.data.stream import drift_blob_stream
from repro.streaming import RefitPolicy, StreamingRTDBSCAN

WINDOW, CHUNK, CHUNKS, MIN_PTS = 2000, 100, 40, 5
#: Refit-only over rebuild-every-update node visits across the steady
#: updates.  Morton-matched slots measure 4.2-4.8x on seeds 0 and 1;
#: lowest-free-slot placement measures 9.5-10.4x.
MAX_VISIT_RATIO = 6.0


@pytest.mark.parametrize("seed", [0, 1])
def test_refit_visits_stay_near_rebuild(seed):
    chunks = list(drift_blob_stream(CHUNKS, CHUNK, seed=seed))
    fill = WINDOW // CHUNK
    eps = calibrate_eps(np.vstack(chunks[:fill]), MIN_PTS, 0.30)
    runs = {}
    for mode in ("refit", "rebuild"):
        engine = StreamingRTDBSCAN(eps, MIN_PTS, window=WINDOW, policy=RefitPolicy(mode=mode))
        runs[mode] = engine.consume(chunks)
        assert all(u.accel_action == mode for u in runs[mode][fill:])

    for ua, ub in zip(runs["refit"], runs["rebuild"]):
        assert np.array_equal(ua.labels, ub.labels)

    def steady_visits(updates):
        return sum(p.counts.rt_node_visits for u in updates[fill:] for p in u.report.phases)

    ratio = steady_visits(runs["refit"]) / steady_visits(runs["rebuild"])
    assert ratio <= MAX_VISIT_RATIO, ratio
