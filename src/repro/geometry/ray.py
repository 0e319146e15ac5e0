"""Rays and ray–primitive intersection tests.

The RT-DBSCAN reduction launches an *infinitesimally short* ray from every
query point (``t`` in ``[0, 1e-16]``).  Such a ray behaves like a point
query: it intersects exactly the solid primitives that contain its origin.
The simulated RT device therefore runs every launch, triangle mode included,
as a point query; the parametric ray tests here are the reference that
reduction is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RayBatch",
    "EPSILON_RAY_TMAX",
    "ray_aabb_intersect",
    "ray_sphere_intersect",
    "point_in_sphere",
    "make_point_query_rays",
]

#: ``t_max`` used by the paper for the "infinitesimally small" query rays.
EPSILON_RAY_TMAX = 1e-16


@dataclass
class RayBatch:
    """A batch of rays ``r(t) = origin + t * direction, t in [tmin, tmax]``.

    Attributes
    ----------
    origins:
        ``(n, 3)`` ray origins.
    directions:
        ``(n, 3)`` ray directions (not required to be normalised; the RT
        device never relies on unit length for the point-query reduction).
    tmin, tmax:
        ``(n,)`` per-ray parametric interval bounds.
    """

    origins: np.ndarray
    directions: np.ndarray
    tmin: np.ndarray = field(default=None)  # type: ignore[assignment]
    tmax: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.origins = np.atleast_2d(np.asarray(self.origins, dtype=np.float64))
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=np.float64))
        n = self.origins.shape[0]
        if self.origins.shape != (n, 3) or self.directions.shape != (n, 3):
            raise ValueError("origins and directions must both have shape (n, 3)")
        if self.tmin is None:
            self.tmin = np.zeros(n, dtype=np.float64)
        else:
            self.tmin = np.broadcast_to(np.asarray(self.tmin, dtype=np.float64), (n,)).copy()
        if self.tmax is None:
            self.tmax = np.full(n, np.inf, dtype=np.float64)
        else:
            self.tmax = np.broadcast_to(np.asarray(self.tmax, dtype=np.float64), (n,)).copy()
        if np.any(self.tmax < self.tmin):
            raise ValueError("tmax must be >= tmin for every ray")

    def __len__(self) -> int:
        return self.origins.shape[0]

    @property
    def is_point_query(self) -> bool:
        """True when every ray is short enough to act as a point query."""
        return bool(np.all(self.tmax <= 1e-12))


def make_point_query_rays(points: np.ndarray, direction=(0.0, 0.0, 1.0)) -> RayBatch:
    """Build the paper's ε-neighbourhood query rays.

    One infinitesimally short ray per query point, with the fixed direction
    the paper uses for 2D data lifted to 3D (z component 1).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dirs = np.broadcast_to(np.asarray(direction, dtype=np.float64), points.shape).copy()
    return RayBatch(points, dirs, tmin=0.0, tmax=EPSILON_RAY_TMAX)


# ---------------------------------------------------------------------- #
# intersection tests
# ---------------------------------------------------------------------- #
def ray_aabb_intersect(
    origins: np.ndarray,
    inv_dirs: np.ndarray,
    tmin: np.ndarray,
    tmax: np.ndarray,
    box_lower: np.ndarray,
    box_upper: np.ndarray,
) -> np.ndarray:
    """Slab test of rays against boxes, elementwise over equal-length batches.

    Parameters are broadcast against each other; ``inv_dirs`` is the
    precomputed reciprocal of the ray directions (``inf`` where a component
    is zero, which the slab test handles via IEEE semantics).
    """
    origins = np.atleast_2d(origins)
    inv_dirs = np.atleast_2d(inv_dirs)
    box_lower = np.atleast_2d(box_lower)
    box_upper = np.atleast_2d(box_upper)
    t0 = (box_lower - origins) * inv_dirs
    t1 = (box_upper - origins) * inv_dirs
    tnear = np.minimum(t0, t1)
    tfar = np.maximum(t0, t1)
    # A zero direction component with the origin inside the slab yields
    # -inf/+inf (always passes); outside the slab yields NaN which we treat
    # as a miss for that axis by replacing with +/- inf appropriately.
    tnear = np.where(np.isnan(tnear), -np.inf, tnear)
    tfar = np.where(np.isnan(tfar), np.inf, tfar)
    enter = np.maximum(tnear.max(axis=1), np.asarray(tmin))
    exit_ = np.minimum(tfar.min(axis=1), np.asarray(tmax))
    return enter <= exit_


def ray_sphere_intersect(
    origins: np.ndarray,
    directions: np.ndarray,
    tmin: np.ndarray,
    tmax: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Solid-sphere intersection, elementwise over equal-length batches.

    Matches the paper's Intersection program semantics: the spheres are
    *solid*, so a ray whose origin lies inside a sphere intersects it even
    when the parametric interval is infinitesimal.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    radii = np.asarray(radii, dtype=np.float64)
    tmin = np.asarray(tmin, dtype=np.float64)
    tmax = np.asarray(tmax, dtype=np.float64)

    oc = origins - centers
    dist2 = np.einsum("ij,ij->i", oc, oc)
    inside = dist2 <= radii**2
    # Surface hit within [tmin, tmax] for origins outside the sphere.
    a = np.einsum("ij,ij->i", directions, directions)
    b = 2.0 * np.einsum("ij,ij->i", oc, directions)
    c = dist2 - radii**2
    disc = b * b - 4.0 * a * c
    hit_surface = np.zeros(len(origins), dtype=bool)
    ok = (disc >= 0) & (a > 0)
    if np.any(ok):
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t0 = (-b - sq) / np.where(ok, 2.0 * a, 1.0)
        t1 = (-b + sq) / np.where(ok, 2.0 * a, 1.0)
        in0 = (t0 >= tmin) & (t0 <= tmax)
        in1 = (t1 >= tmin) & (t1 <= tmax)
        hit_surface = ok & (in0 | in1)
    return inside | hit_surface


def point_in_sphere(points: np.ndarray, centers: np.ndarray, radii) -> np.ndarray:
    """Elementwise containment of ``points[i]`` in sphere ``(centers[i], radii[i])``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    radii = np.asarray(radii, dtype=np.float64)
    d = points - centers
    return np.einsum("ij,ij->i", d, d) <= radii**2
