"""Declarative clusterer configuration.

A :class:`ClustererSpec` captures everything needed to build a clusterer —
algorithm name, the two DBSCAN parameters, an optional neighbour backend and
free-form algorithm parameters — as a small frozen value object that can be
validated, logged, serialised into benchmark records, and handed to
:func:`repro.api.registry.make_clusterer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .registry import AlgorithmEntry, get_backend, resolve_algorithm

__all__ = ["ClustererSpec"]


@dataclass(frozen=True)
class ClustererSpec:
    """Configuration for one clusterer instance.

    Parameters
    ----------
    algo:
        Registered algorithm name; the compact ``"algo@backend"`` spelling is
        also accepted (mutually consistent with ``backend``).
    eps:
        DBSCAN ε.  May stay ``None`` while the spec is being assembled, but
        must be set before :func:`~repro.api.registry.make_clusterer`;
        :func:`repro.cluster` fills it via k-distance calibration.
    min_pts:
        DBSCAN minPts.
    backend:
        Optional neighbour backend name, for algorithms registered with
        ``supports_backend=True``.
    tiles:
        Optional spatial tile count for algorithms registered with
        ``supports_tiles=True`` (the partition layer).
    workers:
        Optional executor parallelism for tile-capable algorithms.
    native:
        Optional kernel-tier override for algorithms registered with
        ``supports_native=True``: ``True`` forces the compiled C kernels,
        ``False`` forces pure numpy, ``None`` (default) defers to the
        ``REPRO_NATIVE`` environment knob.  Results are byte-identical
        either way; only wall-clock time changes.
    native_threads:
        Optional OpenMP worker-count override for the native tier (again
        only for ``supports_native=True`` algorithms): a positive integer
        pins the fan-out, ``None`` (default) defers to the
        ``REPRO_NATIVE_THREADS`` environment knob (itself defaulting to
        one worker per core).  Ignored when the native tier is off or the
        build lacks OpenMP.  Results are byte-identical at any count.
    params:
        Extra keyword arguments forwarded to the algorithm factory
        (e.g. ``builder="sah"`` or ``window=2000``).
    """

    algo: str = "rt-dbscan"
    eps: float | None = None
    min_pts: int = 5
    backend: str | None = None
    tiles: int | None = None
    workers: int | None = None
    native: bool | None = None
    native_threads: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.eps is not None and (not np.isfinite(self.eps) or self.eps <= 0):
            raise ValueError(f"eps must be a positive finite number, got {self.eps}")
        if int(self.min_pts) != self.min_pts or self.min_pts < 1:
            raise ValueError(f"min_pts must be a positive integer, got {self.min_pts}")
        for name in ("tiles", "workers", "native_threads"):
            value = getattr(self, name)
            if value is None:
                continue
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "min_pts", int(self.min_pts))
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------ #
    def resolve(self) -> tuple[AlgorithmEntry, str | None]:
        """Validate against the registries; returns (entry, backend name).

        Raises ``KeyError`` for unknown algorithm/backend names and
        ``ValueError`` when a backend is requested for an algorithm that does
        not take one, or when ``algo`` carries an ``@backend`` suffix that
        contradicts the ``backend`` field.
        """
        entry, inline = resolve_algorithm(self.algo)
        backend = self.backend
        if backend is not None:
            backend = get_backend(backend).name
            if inline is not None and inline != backend:
                raise ValueError(
                    f"conflicting backends: algo={self.algo!r} vs backend={self.backend!r}"
                )
        else:
            backend = inline
        if backend is not None and not entry.supports_backend:
            raise ValueError(
                f"algorithm {entry.name!r} does not accept a neighbour backend"
            )
        if (self.tiles is not None or self.workers is not None) and not entry.supports_tiles:
            raise ValueError(
                f"algorithm {entry.name!r} does not accept tiles/workers; "
                "use a tile-capable algorithm such as 'rt-dbscan-tiled'"
            )
        if self.native is not None and not entry.supports_native:
            raise ValueError(
                f"algorithm {entry.name!r} does not accept a native= kernel-tier "
                "override"
            )
        if self.native_threads is not None and not entry.supports_native:
            raise ValueError(
                f"algorithm {entry.name!r} does not accept a native_threads= "
                "override"
            )
        return entry, backend

    def as_dict(self) -> dict:
        return {
            "algo": self.algo,
            "eps": self.eps,
            "min_pts": self.min_pts,
            "backend": self.backend,
            "tiles": self.tiles,
            "workers": self.workers,
            "native": self.native,
            "native_threads": self.native_threads,
            "params": dict(self.params),
        }
