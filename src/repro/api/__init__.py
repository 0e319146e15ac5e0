"""Unified estimator API: protocol, spec, registries and the cluster facade.

Layering
--------
* :mod:`repro.api.protocol` — the ``Clusterer`` protocol every
  implementation satisfies;
* :mod:`repro.api.registry` — decorator-based algorithm and neighbour-backend
  registries plus the ``make_clusterer`` / ``make_backend`` factories;
* :mod:`repro.api.spec` — the declarative ``ClustererSpec`` configuration;
* :mod:`repro.api.facade` — the one-call ``repro.cluster(...)`` entry point.
"""

from .facade import cluster
from .protocol import Clusterer, ClustererMixin
from .registry import (
    AlgorithmEntry,
    BackendEntry,
    get_algorithm,
    get_backend,
    list_algorithms,
    list_backends,
    make_backend,
    make_clusterer,
    register_algorithm,
    register_backend,
    resolve_algorithm,
)
from .spec import ClustererSpec

__all__ = [
    "cluster",
    "Clusterer",
    "ClustererMixin",
    "AlgorithmEntry",
    "BackendEntry",
    "get_algorithm",
    "get_backend",
    "list_algorithms",
    "list_backends",
    "make_backend",
    "make_clusterer",
    "register_algorithm",
    "register_backend",
    "resolve_algorithm",
    "ClustererSpec",
]
