"""Engine snapshot/restore: bit-identical continuation on every backend.

The durability layer's core contract: ``restore(snapshot())`` rebuilds an
engine whose *future* behaviour — labels, arrival numbering, eviction order,
border tie-breaks — is indistinguishable from the engine that never stopped.
The window replay argument (counts, core flags, anchors and the union–find
forest are pure functions of the live window point set) makes this exact,
so these tests assert byte equality, not approximation.
"""

import json

import numpy as np
import pytest

from repro.streaming.engine import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    StreamingRTDBSCAN,
    StreamUpdate,
)

BACKENDS = ["rt", "grid", "kdtree", "brute"]
EPS, MIN_PTS, WINDOW = 0.45, 5, 220


def make_chunks(seed=11, n_chunks=7, size=70):
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(n_chunks):
        centre = rng.uniform(-1, 1, size=3)
        chunks.append((centre + rng.normal(scale=0.3, size=(size, 3))).astype(np.float64))
    return chunks


def build(backend, **kwargs):
    return StreamingRTDBSCAN(
        eps=EPS, min_pts=MIN_PTS, window=WINDOW, backend=backend, **kwargs
    )


def feed(engine, chunks):
    last = None
    for chunk in chunks:
        last = engine.update(chunk)
    return last


@pytest.mark.parametrize("backend", BACKENDS)
class TestRestoreParity:
    def test_restore_then_continue_matches_uninterrupted(self, backend):
        chunks = make_chunks()
        reference = build(backend)
        feed(reference, chunks)
        ref = reference.result()

        engine = build(backend)
        feed(engine, chunks[:4])
        resumed = StreamingRTDBSCAN.restore(engine.snapshot())
        feed(resumed, chunks[4:])
        got = resumed.result()

        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)
        np.testing.assert_array_equal(
            got.extra["window_arrivals"], ref.extra["window_arrivals"]
        )
        assert resumed.restored is True
        assert got.extra["restored"] is True
        assert resumed.backend == backend

    def test_snapshot_survives_json_round_trip(self, backend):
        chunks = make_chunks(seed=5)
        engine = build(backend)
        feed(engine, chunks[:3])
        wire = json.loads(json.dumps(engine.snapshot()))
        resumed = StreamingRTDBSCAN.restore(wire)
        a = feed(resumed, chunks[3:])
        b = feed(engine, chunks[3:])
        assert isinstance(a, StreamUpdate) and isinstance(b, StreamUpdate)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_restore_preserves_running_totals(self, backend):
        chunks = make_chunks(seed=3, n_chunks=5)
        engine = build(backend)
        feed(engine, chunks)
        resumed = StreamingRTDBSCAN.restore(engine.snapshot())
        assert resumed.num_updates == engine.num_updates
        assert resumed.points_ingested == engine.points_ingested
        assert resumed.points_evicted == engine.points_evicted
        assert resumed.total_counts.as_dict() == engine.total_counts.as_dict()

    def test_eviction_order_preserved_across_restore(self, backend):
        # The sliding window keeps evicting in arrival order after a restore;
        # a broken arrival renumbering would surface here as a different
        # window membership, not just different labels.
        chunks = make_chunks(seed=23, n_chunks=10, size=60)
        reference = build(backend)
        feed(reference, chunks)

        engine = build(backend)
        feed(engine, chunks[:5])
        resumed = StreamingRTDBSCAN.restore(engine.snapshot())
        feed(resumed, chunks[5:])
        np.testing.assert_array_equal(
            resumed.result().extra["window_arrivals"],
            reference.result().extra["window_arrivals"],
        )


class TestValidation:
    def snapshot(self):
        engine = build("grid")
        feed(engine, make_chunks(n_chunks=3))
        return engine.snapshot()

    def test_validate_accepts_real_snapshot(self):
        sec = StreamingRTDBSCAN.validate_snapshot(self.snapshot())
        assert sec["format"] == SNAPSHOT_FORMAT
        assert sec["version"] == SNAPSHOT_VERSION

    def test_missing_engine_section_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            StreamingRTDBSCAN.validate_snapshot({"labels": []})

    def test_wrong_format_rejected(self):
        snap = self.snapshot()
        snap["engine"]["format"] = "something-else"
        with pytest.raises(ValueError, match="format"):
            StreamingRTDBSCAN.validate_snapshot(snap)

    def test_future_version_rejected(self):
        snap = self.snapshot()
        snap["engine"]["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            StreamingRTDBSCAN.validate_snapshot(snap)

    def test_non_increasing_arrivals_rejected(self):
        snap = self.snapshot()
        arrivals = snap["engine"]["arrivals"]
        if len(arrivals) >= 2:
            arrivals[1] = arrivals[0]
        with pytest.raises(ValueError, match="increasing"):
            StreamingRTDBSCAN.validate_snapshot(snap)

    def test_arrival_length_mismatch_rejected(self):
        snap = self.snapshot()
        snap["engine"]["arrivals"] = snap["engine"]["arrivals"][:-1]
        with pytest.raises(ValueError, match="arrivals"):
            StreamingRTDBSCAN.validate_snapshot(snap)

    def test_restore_empty_window_snapshot(self):
        engine = build("kdtree")
        resumed = StreamingRTDBSCAN.restore(engine.snapshot())
        update = resumed.update(make_chunks(n_chunks=1)[0])
        fresh = build("kdtree")
        expected = fresh.update(make_chunks(n_chunks=1)[0])
        np.testing.assert_array_equal(update.labels, expected.labels)


class TestBackendSelection:
    @pytest.mark.parametrize("backend", ["grid", "kdtree", "brute"])
    def test_host_backends_match_rt_labels(self, backend):
        chunks = make_chunks(seed=31, n_chunks=6)
        host = build(backend)
        rt = build("rt")
        feed(host, chunks)
        feed(rt, chunks)
        np.testing.assert_array_equal(host.result().labels, rt.result().labels)

    def test_backend_in_summary(self):
        engine = build("grid")
        assert engine.scene.summary()["backend"] == "grid"
