"""The original sequential DBSCAN (Ester et al. 1996, the paper's Algorithm 1).

This implementation is the correctness oracle for every accelerated variant:
it expands clusters one seed at a time with a breadth-first frontier, exactly
following Algorithm 1, with the neighbour convention documented in
:mod:`repro.dbscan.params` (the ε-neighbourhood excludes the point itself).

Neighbour queries use a KD-tree by default so the oracle stays usable on the
tens of thousands of points the integration tests run; a brute-force mode is
available for the property tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..api.protocol import ClustererMixin
from ..api.registry import register_algorithm
from ..geometry.transforms import validate_points
from ..neighbors.brute import brute_force_neighbors
from .params import NOISE, UNCLASSIFIED, DBSCANParams, DBSCANResult, canonicalize_labels

__all__ = ["ClassicDBSCAN", "classic_dbscan"]


def _neighbor_lists(points: np.ndarray, eps: float, method: str) -> list[np.ndarray]:
    if method == "kdtree":
        tree = cKDTree(points)
        lists = tree.query_ball_point(points, r=eps)
        return [np.setdiff1d(np.asarray(lst, dtype=np.intp), [i]) for i, lst in enumerate(lists)]
    if method == "brute":
        return brute_force_neighbors(points, eps, include_self=False)
    raise ValueError(f"unknown neighbour search method {method!r}")


def classic_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    neighbor_method: str = "kdtree",
) -> DBSCANResult:
    """Run the original sequential DBSCAN.

    Parameters
    ----------
    points:
        ``(n, 2)`` or ``(n, 3)`` data points.
    eps, min_pts:
        The DBSCAN parameters (see :class:`repro.dbscan.params.DBSCANParams`).
    neighbor_method:
        ``"kdtree"`` (default) or ``"brute"`` — which exact neighbour search
        backs ``FindNeighbors``.

    Returns
    -------
    DBSCANResult
        Canonical labels, the core-point mask and the per-point neighbour
        counts.  No timing report is attached: the oracle is not part of the
        performance evaluation.
    """
    pts = validate_points(points)
    params = DBSCANParams(eps=eps, min_pts=min_pts)

    neighbors = _neighbor_lists(pts, params.eps, neighbor_method)
    counts = np.asarray([len(nb) for nb in neighbors], dtype=np.int64)
    core_mask = counts >= params.min_pts

    n = pts.shape[0]
    labels = np.full(n, UNCLASSIFIED, dtype=np.int64)
    cluster_id = 0

    for seed in range(n):
        if labels[seed] != UNCLASSIFIED:
            continue
        if not core_mask[seed]:
            labels[seed] = NOISE
            continue
        # Start a new cluster and expand it breadth-first (Algorithm 1, 8-16).
        labels[seed] = cluster_id
        frontier = deque(neighbors[seed].tolist())
        while frontier:
            q = frontier.popleft()
            if labels[q] == NOISE:
                labels[q] = cluster_id  # noise becomes a border point
            if labels[q] != UNCLASSIFIED:
                continue
            labels[q] = cluster_id
            if core_mask[q]:
                frontier.extend(neighbors[q].tolist())
        cluster_id += 1

    labels[labels == UNCLASSIFIED] = NOISE
    return DBSCANResult(
        labels=canonicalize_labels(labels),
        core_mask=core_mask,
        params=params,
        algorithm="classic-dbscan",
        neighbor_counts=counts,
        points=np.asarray(pts, dtype=np.float64),
    )


@register_algorithm(
    "classic",
    description="The sequential Ester et al. oracle (exact, uninstrumented).",
)
@dataclass
class ClassicDBSCAN(ClustererMixin):
    """Estimator wrapper around :func:`classic_dbscan`.

    Gives the sequential oracle the same ``fit`` / ``fit_predict`` surface as
    the accelerated clusterers so the registry, the benchmark runner and the
    :func:`repro.cluster` facade treat it uniformly.  ``device`` is accepted
    for interface parity and ignored — the oracle runs on the host and is not
    part of the simulated-time evaluation.
    """

    eps: float
    min_pts: int
    device: object | None = None
    neighbor_method: str = "kdtree"

    def __post_init__(self) -> None:
        self.params = DBSCANParams(eps=self.eps, min_pts=self.min_pts)

    def fit(self, points: np.ndarray) -> DBSCANResult:
        return classic_dbscan(
            points, self.params.eps, self.params.min_pts,
            neighbor_method=self.neighbor_method,
        )
