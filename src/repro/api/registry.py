"""Algorithm and neighbour-backend registries.

The registries are the single source of truth for "what can this package
run": every clusterer (RT-DBSCAN, the GPU baselines, the sequential oracle,
the streaming engine) registers itself with :func:`register_algorithm`, and
every fixed-radius neighbour search registers with :func:`register_backend`.
The benchmark runner, the CLI and the :func:`repro.cluster` facade all
resolve names here instead of keeping hand-written factory tables.

Names are case-insensitive.  An algorithm that supports pluggable neighbour
backends (``supports_backend=True``) can also be addressed with the compact
``"algo@backend"`` spelling — ``"rt-dbscan@grid"`` resolves to the RT-DBSCAN
pipeline running on the uniform-grid search — which is how the backend
ablation experiment names its columns.

This module deliberately imports nothing from the implementation layers; the
implementations import *it* (a leaf module) and register themselves as a side
effect of being imported.  :func:`_ensure_builtins` triggers those imports
lazily so that ``import repro.api`` alone is enough to see the full registry.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "AlgorithmEntry",
    "BackendEntry",
    "register_algorithm",
    "register_backend",
    "get_algorithm",
    "get_backend",
    "resolve_algorithm",
    "list_algorithms",
    "list_backends",
    "make_backend",
    "make_clusterer",
]


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered clustering algorithm.

    ``factory`` is called as ``factory(eps=..., min_pts=..., device=...,
    **params)`` and must return an object satisfying the
    :class:`~repro.api.protocol.Clusterer` protocol.  ``instrumented`` is
    False for reference implementations (the sequential oracle) whose results
    carry no simulated-time report; the benchmark runner then falls back to
    wall-clock timing.
    """

    name: str
    factory: Callable[..., Any]
    description: str = ""
    instrumented: bool = True
    supports_backend: bool = False
    supports_tiles: bool = False
    supports_native: bool = False
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class BackendEntry:
    """One registered fixed-radius neighbour backend.

    ``factory`` is called as ``factory(points, radius, device=..., **kwargs)``
    and must return an object satisfying the
    :class:`~repro.neighbors.backend.NeighborBackend` protocol.

    ``exact`` records the exactness contract: exact backends return the true
    ε-adjacency (and therefore bit-identical DBSCAN labels); approximate
    backends (``exact=False``) trade recall for speed and every run through
    them should ship with an agreement report against an exact reference
    (see :func:`repro.metrics.agreement_summary`).  ``knobs`` names the
    backend-specific constructor kwargs (e.g. ``recall_target`` for the LSH
    backend) that :class:`~repro.api.spec.ClustererSpec` validates and
    :func:`make_clusterer` routes to the backend factory.  ``native`` marks
    backends whose hot loops have a compiled implementation in the optional
    native tier (:mod:`repro.native`); results are byte-identical either way.
    """

    name: str
    factory: Callable[..., Any]
    description: str = ""
    aliases: tuple[str, ...] = ()
    exact: bool = True
    knobs: tuple[str, ...] = ()
    native: bool = False


_ALGORITHMS: dict[str, AlgorithmEntry] = {}
_BACKENDS: dict[str, BackendEntry] = {}

#: modules whose import populates the registries with the built-in entries.
_BUILTIN_MODULES = (
    "repro.neighbors.rt_find",
    "repro.neighbors.backend",
    "repro.neighbors.approx",
    "repro.dbscan",
    "repro.baselines",
    "repro.streaming",
    "repro.partition",
)
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the implementation modules so their registrations run."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    # Flag first to stay re-entrant (the builtin modules may consult the
    # registry while importing), but reset on failure so a transient import
    # error doesn't leave the registry permanently partial.
    _builtins_loaded = True
    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
    except BaseException:
        _builtins_loaded = False
        raise


# ------------------------------------------------------------------------- #
# Registration decorators.
# ------------------------------------------------------------------------- #
def register_algorithm(
    name: str,
    *,
    description: str = "",
    instrumented: bool = True,
    supports_backend: bool = False,
    supports_tiles: bool = False,
    supports_native: bool = False,
    aliases: tuple[str, ...] = (),
) -> Callable:
    """Class/function decorator that registers a clusterer factory.

    The decorated object must be callable as ``factory(eps=..., min_pts=...,
    device=..., **params)``.  Algorithms registered with
    ``supports_tiles=True`` additionally accept ``tiles=`` / ``workers=``
    keyword arguments (the partition-layer knobs); ``supports_native=True``
    ones accept a ``native=`` kernel-tier override.  Registering an
    already-taken name raises ``ValueError`` — overwriting a registration is
    always a bug.
    """

    def decorator(factory: Callable) -> Callable:
        entry = AlgorithmEntry(
            name=name.lower(),
            factory=factory,
            description=description,
            instrumented=instrumented,
            supports_backend=supports_backend,
            supports_tiles=supports_tiles,
            supports_native=supports_native,
            aliases=tuple(a.lower() for a in aliases),
        )
        for key in (entry.name, *entry.aliases):
            if key in _ALGORITHMS:
                raise ValueError(f"algorithm {key!r} is already registered")
            _ALGORITHMS[key] = entry
        return factory

    return decorator


def register_backend(
    name: str,
    *,
    description: str = "",
    aliases: tuple[str, ...] = (),
    exact: bool = True,
    knobs: tuple[str, ...] = (),
    native: bool = False,
) -> Callable:
    """Class/function decorator that registers a neighbour-backend factory.

    The decorated object must be callable as ``factory(points, radius,
    device=..., **kwargs)``.  ``exact=False`` marks deliberately inexact
    backends (the approximate tier); ``knobs`` declares their tunable
    speed/recall kwargs so specs can validate them up front; ``native=True``
    advertises a compiled implementation of the backend's hot loops in the
    optional native tier.
    """

    def decorator(factory: Callable) -> Callable:
        entry = BackendEntry(
            name=name.lower(),
            factory=factory,
            description=description,
            aliases=tuple(a.lower() for a in aliases),
            exact=exact,
            knobs=tuple(knobs),
            native=native,
        )
        for key in (entry.name, *entry.aliases):
            if key in _BACKENDS:
                raise ValueError(f"neighbour backend {key!r} is already registered")
            _BACKENDS[key] = entry
        return factory

    return decorator


# ------------------------------------------------------------------------- #
# Lookup.
# ------------------------------------------------------------------------- #
def list_algorithms() -> list[str]:
    """Primary (alias-free) names of all registered algorithms, sorted."""
    _ensure_builtins()
    return sorted({entry.name for entry in _ALGORITHMS.values()})


def list_backends() -> list[str]:
    """Primary names of all registered neighbour backends, sorted."""
    _ensure_builtins()
    return sorted({entry.name for entry in _BACKENDS.values()})


def get_algorithm(name: str) -> AlgorithmEntry:
    """Look up an algorithm entry by (case-insensitive) name or alias."""
    _ensure_builtins()
    key = name.lower()
    if key not in _ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; available: {list_algorithms()}")
    return _ALGORITHMS[key]


def get_backend(name: str) -> BackendEntry:
    """Look up a backend entry by (case-insensitive) name or alias."""
    _ensure_builtins()
    key = name.lower()
    if key not in _BACKENDS:
        raise KeyError(f"unknown neighbour backend {name!r}; available: {list_backends()}")
    return _BACKENDS[key]


def resolve_algorithm(name: str) -> tuple[AlgorithmEntry, str | None]:
    """Resolve ``"algo"`` or ``"algo@backend"`` to (entry, backend name).

    The ``@backend`` suffix is only legal for algorithms registered with
    ``supports_backend=True``.
    """
    base, sep, backend = name.partition("@")
    entry = get_algorithm(base)
    if not sep:
        return entry, None
    if not entry.supports_backend:
        raise ValueError(
            f"algorithm {entry.name!r} does not accept a neighbour backend "
            f"(got {name!r})"
        )
    return entry, get_backend(backend).name


# ------------------------------------------------------------------------- #
# Factories.
# ------------------------------------------------------------------------- #
def make_backend(name: str, points, radius: float, *, device=None, **kwargs):
    """Instantiate a registered neighbour backend over a dataset."""
    return get_backend(name).factory(points, radius, device=device, **kwargs)


def make_clusterer(spec, *, device=None):
    """Instantiate the clusterer described by a :class:`ClustererSpec`.

    ``device`` is the simulated RT device to charge the run to; each
    algorithm creates a fresh default device when it is omitted.
    """
    from .spec import ClustererSpec

    if not isinstance(spec, ClustererSpec):
        raise TypeError(f"make_clusterer expects a ClustererSpec, got {type(spec).__name__}")
    entry, backend = spec.resolve()
    if spec.eps is None:
        raise ValueError(
            "ClustererSpec.eps must be set before make_clusterer(); "
            "use repro.cluster(...) for k-distance auto-calibration"
        )
    params = dict(spec.params)
    if backend is not None:
        params["backend"] = backend
        # Route backend-specific knobs (declared on the registry entry) into
        # the ``backend_kwargs`` dict the backend-pluggable algorithms
        # forward verbatim to make_backend: both the explicit
        # ``params["backend_kwargs"]`` spelling and bare top-level knobs
        # (``recall_target=0.9``) are accepted; unknown knob names were
        # already rejected by ``spec.resolve()``.
        knobs = get_backend(backend).knobs
        backend_kwargs = dict(params.pop("backend_kwargs", None) or {})
        for knob in knobs:
            if knob in params:
                backend_kwargs.setdefault(knob, params.pop(knob))
        if backend_kwargs:
            params["backend_kwargs"] = backend_kwargs
    if spec.tiles is not None:
        params["tiles"] = spec.tiles
    if spec.workers is not None:
        params["workers"] = spec.workers
    if spec.native is not None:
        params["native"] = spec.native
    if spec.native_threads is not None:
        params["native_threads"] = spec.native_threads
    return entry.factory(eps=spec.eps, min_pts=spec.min_pts, device=device, **params)

