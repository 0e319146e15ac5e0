"""DBSCAN implementations and shared clustering machinery.

``RTDBSCAN`` is the paper's contribution (Algorithm 3) on the simulated RT
device — with pluggable neighbour backends — ``classic_dbscan`` is the
sequential Ester et al. oracle (wrapped by ``ClassicDBSCAN`` for the
estimator API); the disjoint-set forests, the stage-2 formation pass and the
label helpers are shared with the GPU baselines in :mod:`repro.baselines`.
"""

from .classic import ClassicDBSCAN, classic_dbscan
from .disjoint_set import DisjointSet, ParallelDisjointSet
from .formation import FormationResult, form_clusters_csr
from .labels import PointClass, classify_points, labels_from_roots
from .params import NOISE, UNCLASSIFIED, DBSCANParams, DBSCANResult, canonicalize_labels
from .rt_dbscan import RTDBSCAN, rt_dbscan

__all__ = [
    "ClassicDBSCAN",
    "classic_dbscan",
    "DisjointSet",
    "ParallelDisjointSet",
    "FormationResult",
    "form_clusters_csr",
    "PointClass",
    "classify_points",
    "labels_from_roots",
    "NOISE",
    "UNCLASSIFIED",
    "DBSCANParams",
    "DBSCANResult",
    "canonicalize_labels",
    "RTDBSCAN",
    "rt_dbscan",
]
