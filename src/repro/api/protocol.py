"""The estimator protocol every clusterer in this package satisfies.

The protocol follows the sklearn convention the related clustering libraries
use (``fit`` / ``fit_predict``; the streaming engine adds ``partial_fit``),
while keeping this package's richer return type:
``fit`` returns a :class:`~repro.dbscan.params.DBSCANResult`, not ``self``,
because the timing report and core mask are first-class outputs here.

:class:`ClustererMixin` supplies the derived ``fit_predict`` so that the
concrete implementations only have to write ``fit``.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = ["Clusterer", "ClustererMixin"]


@runtime_checkable
class Clusterer(Protocol):
    """A batch clusterer: ``fit`` points, get a labelled result."""

    def fit(self, points: np.ndarray) -> Any:
        """Cluster ``points`` and return a ``DBSCANResult``."""
        ...

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return only the label array."""
        ...


class ClustererMixin:
    """Derived estimator methods shared by the concrete clusterers."""

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return only the label array."""
        return self.fit(points).labels
