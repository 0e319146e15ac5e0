"""DBSCAN-specific agreement checks.

Two correct DBSCAN implementations must agree exactly on (a) which points are
core points, (b) which points are noise, and (c) how the core points are
partitioned into clusters.  Border points may legitimately differ: a border
point within ε of two different clusters can be attached to either (the
paper's Algorithm 3 resolves the race with an atomic union).  These helpers
express exactly that contract so the integration and property tests can
assert it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dbscan.params import DBSCANResult
from .ari import adjusted_rand_index

__all__ = [
    "AgreementReport",
    "compare_results",
    "core_partitions_equal",
    "labels_equivalent",
]


@dataclass
class AgreementReport:
    """Outcome of comparing two DBSCAN results on the same data."""

    core_mask_equal: bool
    noise_mask_equal: bool
    core_partition_equal: bool
    border_assignment_valid: bool
    ari: float
    num_clusters_a: int
    num_clusters_b: int

    @property
    def equivalent(self) -> bool:
        """True when the two results are DBSCAN-equivalent (see module doc)."""
        return (
            self.core_mask_equal
            and self.noise_mask_equal
            and self.core_partition_equal
            and self.border_assignment_valid
            and self.num_clusters_a == self.num_clusters_b
        )

    def as_dict(self) -> dict:
        return {
            "core_mask_equal": self.core_mask_equal,
            "noise_mask_equal": self.noise_mask_equal,
            "core_partition_equal": self.core_partition_equal,
            "border_assignment_valid": self.border_assignment_valid,
            "ari": self.ari,
            "num_clusters_a": self.num_clusters_a,
            "num_clusters_b": self.num_clusters_b,
            "equivalent": self.equivalent,
        }


def core_partitions_equal(
    labels_a: np.ndarray, labels_b: np.ndarray, core_mask: np.ndarray
) -> bool:
    """Do the two labelings partition the core points identically?"""
    core_mask = np.asarray(core_mask, dtype=bool)
    a = np.asarray(labels_a)[core_mask]
    b = np.asarray(labels_b)[core_mask]
    if a.size == 0:
        return True
    # Build the label mapping a -> b and check it is a bijection that is
    # consistent for every core point.
    pairs = {}
    reverse = {}
    for la, lb in zip(a.tolist(), b.tolist()):
        if la in pairs and pairs[la] != lb:
            return False
        if lb in reverse and reverse[lb] != la:
            return False
        pairs[la] = lb
        reverse[lb] = la
    return True


def _border_assignment_valid(
    points: np.ndarray | None,
    result: DBSCANResult,
    reference: DBSCANResult,
) -> bool:
    """Every border point must sit in a cluster containing a core point within ε.

    When ``points`` is None the geometric check is skipped and only the
    structural condition (border points not labelled noise by one result and
    cluster by the other) is verified — which is already covered by the noise
    mask equality — so the function returns True.
    """
    if points is None:
        return True
    pts = np.asarray(points, dtype=np.float64)
    eps = result.params.eps
    border_idx = np.flatnonzero(result.border_mask)
    core_idx = np.flatnonzero(result.core_mask)
    if border_idx.size == 0 or core_idx.size == 0:
        return border_idx.size == 0
    core_pts = pts[core_idx]
    core_labels = result.labels[core_idx]
    for b in border_idx:
        lab = result.labels[b]
        if lab < 0:
            return False
        same = core_labels == lab
        if not same.any():
            return False
        d2 = ((core_pts[same] - pts[b]) ** 2).sum(axis=1)
        if d2.min() > eps * eps + 1e-12:
            return False
    return True


def compare_results(
    a: DBSCANResult, b: DBSCANResult, *, points: np.ndarray | None = None
) -> AgreementReport:
    """Compare two DBSCAN results for DBSCAN-equivalence.

    ``points`` enables the geometric validation of border assignments (each
    border point must be within ε of a core point of its assigned cluster).
    """
    core_equal = bool(np.array_equal(a.core_mask, b.core_mask))
    noise_equal = bool(np.array_equal(a.noise_mask, b.noise_mask))
    partition_equal = core_equal and core_partitions_equal(a.labels, b.labels, a.core_mask)
    border_ok = _border_assignment_valid(points, b, a) and _border_assignment_valid(points, a, b)
    return AgreementReport(
        core_mask_equal=core_equal,
        noise_mask_equal=noise_equal,
        core_partition_equal=partition_equal,
        border_assignment_valid=border_ok,
        ari=adjusted_rand_index(a.labels, b.labels),
        num_clusters_a=a.num_clusters,
        num_clusters_b=b.num_clusters,
    )


def labels_equivalent(a: DBSCANResult, b: DBSCANResult, *, points: np.ndarray | None = None) -> bool:
    """Shorthand: are the two results DBSCAN-equivalent?"""
    return compare_results(a, b, points=points).equivalent

