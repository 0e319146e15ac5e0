"""Sphere primitives.

The input transformation of RT-DBSCAN (Section III-B) turns every data point
into a solid sphere of radius ε.  ``SphereGeometry`` is the batch primitive
the simulated RT device builds its BVH over, with the custom bounding-box
program an OptiX pipeline would register; the sphere Intersection program is
:class:`repro.rtcore.programs.SphereProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aabb import AABB

__all__ = ["SphereGeometry"]


@dataclass
class SphereGeometry:
    """A batch of spheres sharing a common (or per-sphere) radius.

    Parameters
    ----------
    centers:
        ``(n, 3)`` sphere centres — the (lifted) data points.
    radii:
        Scalar or ``(n,)`` radii.  RT-DBSCAN uses a single ε for all spheres.
    """

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self) -> None:
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        if self.centers.shape[1] != 3:
            raise ValueError(f"sphere centers must have shape (n, 3), got {self.centers.shape}")
        radii = np.asarray(self.radii, dtype=np.float64)
        if radii.ndim == 0:
            radii = np.full(self.centers.shape[0], float(radii))
        if radii.shape != (self.centers.shape[0],):
            raise ValueError("radii must be a scalar or a (n,) array matching centers")
        if np.any(radii < 0):
            raise ValueError("sphere radii must be non-negative")
        self.radii = radii

    def __len__(self) -> int:
        return self.centers.shape[0]

    def bounds(self) -> AABB:
        """Axis-aligned bounding boxes, one per sphere (the bounds program).

        The boxes are padded by a few ulps: the intersection program accepts
        any point whose *rounded* squared distance is ≤ r², and such points
        can sit marginally outside the exact ball.  Without the pad the BVH
        would prune candidates the distance test confirms, making traversal
        results diverge from brute force exactly at the ε boundary.
        """
        r = self.radii[:, None]
        pad = 4.0 * np.finfo(np.float64).eps * (np.abs(self.centers) + r)
        return AABB(self.centers - r - pad, self.centers + r + pad)
