"""Label extraction and point classification helpers.

Shared by every DBSCAN implementation: turning a union–find forest (or any
per-point "component id") plus the core/noise information into the canonical
label array described in :mod:`repro.dbscan.params`.
"""

from __future__ import annotations

import numpy as np

from .params import NOISE, canonicalize_labels

__all__ = ["labels_from_roots", "classify_points", "PointClass"]


class PointClass:
    """Integer codes for the three DBSCAN point classes."""

    CORE = 2
    BORDER = 1
    NOISE = 0


def classify_points(core_mask: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point class codes (CORE / BORDER / NOISE) from a finished run."""
    core_mask = np.asarray(core_mask, dtype=bool)
    labels = np.asarray(labels)
    out = np.full(core_mask.shape, PointClass.NOISE, dtype=np.int8)
    out[(labels >= 0) & ~core_mask] = PointClass.BORDER
    out[core_mask] = PointClass.CORE
    return out


def labels_from_roots(
    roots: np.ndarray, core_mask: np.ndarray, assigned_mask: np.ndarray | None = None
) -> np.ndarray:
    """Convert union–find roots into canonical cluster labels.

    Parameters
    ----------
    roots:
        ``(n,)`` representative of every point's set.
    core_mask:
        ``(n,)`` boolean core-point mask; clusters are the sets that contain
        at least one core point.
    assigned_mask:
        Optional mask of points that were explicitly attached to a cluster
        (border points).  Defaults to ``core_mask`` — points that are neither
        core nor assigned are labelled noise even if they share a singleton
        set with themselves.

    Returns
    -------
    labels:
        ``(n,)`` canonical labels: clusters numbered 0..k-1 in order of their
        smallest member index, noise = -1.
    """
    roots = np.asarray(roots, dtype=np.intp)
    core_mask = np.asarray(core_mask, dtype=bool)
    n = roots.shape[0]
    if core_mask.shape != (n,):
        raise ValueError("core_mask must match roots in length")
    member = core_mask.copy()
    if assigned_mask is not None:
        member |= np.asarray(assigned_mask, dtype=bool)

    labels = np.full(n, NOISE, dtype=np.int64)
    if not member.any():
        return labels

    # A set forms a cluster only if it contains a core point.
    core_roots = np.unique(roots[core_mask])
    is_cluster_root = np.zeros(roots.max() + 1 if n else 0, dtype=bool)
    is_cluster_root[core_roots] = True

    clustered = member & is_cluster_root[roots]
    labels[clustered] = roots[clustered]
    return canonicalize_labels(labels)
