"""Shared DBSCAN parameter and result types.

Conventions
-----------
All DBSCAN implementations in this package use the same definitions so their
outputs are directly comparable:

* the ε-neighbourhood of a point **excludes the point itself**, matching the
  ``q != s`` filter in the paper's Algorithm 2;
* a point is a **core point** when it has at least ``min_pts`` neighbours
  within ε (under the convention above);
* a **border point** is a non-core point within ε of at least one core point;
* every other point is **noise** and is labelled ``-1``;
* cluster labels are consecutive integers starting at 0, numbered by the
  smallest point index contained in each cluster (deterministic across runs).

Border points reachable from several clusters may legitimately be assigned to
any one of them (the paper's "critical section" in Algorithm 3 exists exactly
because of this race); the agreement metrics in :mod:`repro.metrics` treat
such assignments as equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perf.timing import ExecutionReport

__all__ = ["DBSCANParams", "DBSCANResult", "UNCLASSIFIED", "NOISE"]

#: Internal label for points not yet assigned to any cluster.
UNCLASSIFIED = -2
#: Label of noise points in the output.
NOISE = -1


@dataclass(frozen=True)
class DBSCANParams:
    """The two DBSCAN parameters, validated."""

    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise ValueError(f"eps must be a positive finite number, got {self.eps}")
        if int(self.min_pts) != self.min_pts or self.min_pts < 1:
            raise ValueError(f"min_pts must be a positive integer, got {self.min_pts}")
        object.__setattr__(self, "min_pts", int(self.min_pts))


@dataclass
class DBSCANResult:
    """Output of one DBSCAN run.

    Attributes
    ----------
    labels:
        ``(n,)`` integer labels; ``-1`` marks noise.
    core_mask:
        ``(n,)`` boolean array marking core points.
    params:
        The ε / minPts used.
    report:
        Per-phase timing and operation counts (None for reference
        implementations that are not instrumented).
    neighbor_counts:
        Optional per-point ε-neighbour counts (saved so :meth:`refit` can
        relabel with a different ``min_pts`` while skipping stage 1, per
        Section VI-B).
    points:
        Optional clustered points as validated (float64, 2 or 3 columns;
        float64 input is shared, not copied), kept alongside
        ``neighbor_counts`` so :meth:`refit` can recompute stage 2.
    """

    labels: np.ndarray
    core_mask: np.ndarray
    params: DBSCANParams
    algorithm: str = "dbscan"
    report: ExecutionReport | None = None
    neighbor_counts: np.ndarray | None = None
    points: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_clusters(self) -> int:
        unique = np.unique(self.labels)
        return int((unique >= 0).sum())

    @property
    def noise_mask(self) -> np.ndarray:
        return self.labels == NOISE

    @property
    def num_noise(self) -> int:
        return int(self.noise_mask.sum())

    @property
    def border_mask(self) -> np.ndarray:
        return (~self.core_mask) & (~self.noise_mask)

    def cluster_sizes(self) -> np.ndarray:
        """Sizes of the clusters, indexed by cluster label."""
        if self.num_clusters == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.labels[self.labels >= 0], minlength=self.num_clusters)

    def refit(self, min_pts: int) -> "DBSCANResult":
        """Relabel with a different ``min_pts``, skipping stage 1 entirely.

        This is the Section VI-B shortcut: the stored per-point neighbour
        counts already determine the new core set, so only cluster formation
        (stage 2) runs again — no second core-identification launch.  The
        new core points' rows of the ε-adjacency are recomputed host-side
        with the KD-tree backend, sized by the stored counts, and consumed
        directly by the same union–find formation pass every backend uses
        (no pair arrays are materialised), so the result is bit-identical to
        a fresh ``RTDBSCAN(eps, min_pts).fit``.  Counts from an approximate
        backend are not the exact rows' lengths, so they size nothing.

        Requires ``neighbor_counts`` and ``points`` (kept by default via
        ``keep_neighbor_counts=True``).
        """
        if self.neighbor_counts is None:
            raise ValueError(
                "refit requires stored neighbor_counts; "
                "run with keep_neighbor_counts=True"
            )
        if self.points is None:
            raise ValueError("refit requires the result to carry its points")
        params = DBSCANParams(eps=self.params.eps, min_pts=min_pts)
        core_mask = self.neighbor_counts >= params.min_pts

        from ..api.registry import get_backend
        from ..neighbors.backend import KDTreeNeighborBackend
        from .formation import form_clusters_csr

        source = self.extra.get("backend")
        exact = source is None or get_backend(source).exact
        core_ids = np.flatnonzero(core_mask)
        backend = KDTreeNeighborBackend(self.points, params.eps)
        try:
            indptr, indices, _ = backend.neighbor_csr(
                rows=core_ids, row_counts=self.neighbor_counts[core_ids] if exact else None
            )
        finally:
            backend.release()
        formation = form_clusters_csr(indptr, indices, core_mask, rows=core_ids)
        return DBSCANResult(
            labels=formation.labels,
            core_mask=core_mask,
            params=params,
            algorithm=self.algorithm,
            report=None,
            neighbor_counts=self.neighbor_counts,
            points=self.points,
            extra={
                "refit_from_min_pts": self.params.min_pts,
                **({"backend": source} if source else {}),
            },
        )

    def summary(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "num_points": self.num_points,
            "num_clusters": self.num_clusters,
            "num_core": int(self.core_mask.sum()),
            "num_border": int(self.border_mask.sum()),
            "num_noise": self.num_noise,
            "eps": self.params.eps,
            "min_pts": self.params.min_pts,
        }
        if self.report is not None:
            out["simulated_seconds"] = self.report.total_simulated_seconds
            out["wall_seconds"] = self.report.total_wall_seconds
        return out


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber cluster labels so clusters are ordered by smallest member index.

    Noise (``-1``) is preserved.  Used by every implementation so that two
    algorithms producing the same partition emit identical label arrays.
    """
    labels = np.asarray(labels)
    out = np.full(labels.shape, NOISE, dtype=np.int64)
    clustered = labels >= 0
    uniq, first, inverse = np.unique(
        labels[clustered], return_index=True, return_inverse=True
    )
    # Rank each distinct label by the position of its first member.
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(uniq.size)
    out[clustered] = rank[inverse]
    return out
