"""Clustering-quality and agreement metrics.

Adjusted Rand index and DBSCAN-specific equivalence checks (identical core
and noise sets, identical core partitions, border-point assignments valid up
to ties) used to validate every accelerated implementation against the
sequential oracle.
"""

from .agreement import (
    AgreementReport,
    compare_results,
    core_partitions_equal,
    labels_equivalent,
)
from .ari import adjusted_rand_index, contingency_matrix, pair_confusion_matrix, rand_index

__all__ = [
    "AgreementReport",
    "compare_results",
    "core_partitions_equal",
    "labels_equivalent",
    "adjusted_rand_index",
    "contingency_matrix",
    "pair_confusion_matrix",
    "rand_index",
]
