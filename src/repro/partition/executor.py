"""Shared parallel-map executor.

Every scale-out seam in this package — tile fits in
:class:`~repro.partition.tiled.TiledRTDBSCAN`, benchmark configurations in
:func:`repro.bench.runner.run_sweep` — reduces to "map a pure function over
independent items and keep the results in input order".  :class:`ParallelMap`
is that one abstraction, and the worker count alone picks its strategy:

* ``workers <= 1`` — a plain loop in the calling thread.  The default
  everywhere, because it keeps wall-clock timings deterministic and adds
  zero overhead for the common single-worker case.
* ``workers > 1`` — a ``ThreadPoolExecutor``.  The heavy work here is NumPy
  array kernels and the compiled native kernels, both of which release the
  GIL, so threads overlap it without pickling anything.

Results are always returned as a list in the order of the input items,
regardless of completion order, so callers' outputs are independent of the
execution strategy.  Each item runs in a copy of the caller's
:mod:`contextvars` context, so context-local settings such as the native
dispatcher's overrides reach the worker threads.  Exceptions raised by the
mapped function propagate to the caller in both modes.
"""

from __future__ import annotations

import contextvars
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

__all__ = ["ParallelMap", "as_parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


class ParallelMap:
    """Ordered map over independent items: serial, or thread backed.

    Parameters
    ----------
    workers:
        Degree of parallelism.  ``None``, ``0`` and ``1`` all mean "no
        concurrency" (serial execution); larger counts run on that many
        threads.

    Examples
    --------
    >>> ParallelMap(workers=4).map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    >>> ParallelMap().map(str, range(3))   # serial by default
    ['0', '1', '2']
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.workers = int(workers or 1)

    # ------------------------------------------------------------------ #
    @property
    def is_serial(self) -> bool:
        return self.workers == 1

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every item; results come back in input order."""
        items = list(items)
        if self.is_serial or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
            return [future.result() for future in futures]

    def __repr__(self) -> str:
        return f"ParallelMap(workers={self.workers})"


def as_parallel_map(value: ParallelMap | int | None) -> ParallelMap:
    """Coerce a ``workers`` count or an existing executor into a ParallelMap.

    Accepts ``None`` (serial), an integer worker count, or a ready-made
    :class:`ParallelMap` (returned unchanged).  This is the argument
    convention used by every API that takes a ``workers=`` parameter.
    """
    if isinstance(value, ParallelMap):
        return value
    if value is None or isinstance(value, int):
        return ParallelMap(workers=value)
    raise TypeError(
        f"expected a ParallelMap, an int worker count or None, got {type(value).__name__}"
    )
