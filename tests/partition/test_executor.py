"""Tests for the shared ParallelMap executor."""

from __future__ import annotations

import contextvars
import threading
import time

import pytest

from repro.partition.executor import ParallelMap, as_parallel_map


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_is_the_default(self):
        pm = ParallelMap()
        assert pm.is_serial
        assert pm.workers == 1
        assert pm.map(_square, [1, 2, 3]) == [1, 4, 9]

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_low_worker_counts_force_serial(self, workers):
        pm = ParallelMap(workers=workers)
        assert pm.is_serial

    @pytest.mark.parametrize("workers", [1, 4], ids=["serial", "thread"])
    def test_results_keep_input_order(self, workers):
        pm = ParallelMap(workers=workers)
        items = list(range(20))
        assert pm.map(_square, items) == [x * x for x in items]

    def test_thread_mode_actually_runs_concurrently(self):
        barrier = threading.Barrier(2, timeout=5)

        def rendezvous(_):
            # Both tasks must be in flight at once for the barrier to pass.
            barrier.wait()
            return threading.get_ident()

        idents = ParallelMap(workers=2).map(rendezvous, [0, 1])
        assert len(idents) == 2

    def test_single_item_short_circuits_to_serial(self):
        pm = ParallelMap(workers=4)
        assert pm.map(_square, [3]) == [9]

    def test_empty_input(self):
        assert ParallelMap(workers=4).map(_square, []) == []

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "thread"])
    def test_exceptions_propagate(self, workers):
        def boom(x):
            raise RuntimeError(f"bad item {x}")

        with pytest.raises(RuntimeError, match="bad item"):
            ParallelMap(workers=workers).map(boom, [1, 2])

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelMap(workers=-1)

    def test_serial_stays_in_calling_thread(self):
        ident = ParallelMap().map(lambda _: threading.get_ident(), [0])[0]
        assert ident == threading.get_ident()

    def test_thread_mode_overlaps_sleeps(self):
        # Two 50 ms sleeps on two workers should take well under 100 ms.
        pm = ParallelMap(workers=2)
        start = time.perf_counter()
        pm.map(lambda _: time.sleep(0.05), [0, 1])
        assert time.perf_counter() - start < 0.095

    def test_each_item_runs_in_a_copy_of_the_callers_context(self):
        """Workers see the caller's settings; an item's own reach no one else."""
        var = contextvars.ContextVar("item_setting", default="unset")

        def read_then_set(item):
            seen = var.get()
            var.set(f"item {item}")
            return seen

        var.set("caller")  # the variable is local to this test: nothing else reads it
        assert ParallelMap(workers=2).map(read_then_set, list(range(8))) == ["caller"] * 8
        assert var.get() == "caller"


class TestAsParallelMap:
    def test_none_gives_serial(self):
        assert as_parallel_map(None).is_serial

    def test_int_gives_threads(self):
        pm = as_parallel_map(3)
        assert pm.workers == 3
        assert not pm.is_serial

    def test_existing_executor_passes_through(self):
        pm = ParallelMap(workers=2)
        assert as_parallel_map(pm) is pm

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_parallel_map("four")
