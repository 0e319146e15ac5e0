"""Tests for label extraction and the shared parameter/result types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dbscan.disjoint_set import ParallelDisjointSet
from repro.dbscan.labels import PointClass, classify_points, labels_from_roots
from repro.dbscan.params import (
    NOISE,
    DBSCANParams,
    DBSCANResult,
    canonicalize_labels,
)


class TestDBSCANParams:
    def test_valid(self):
        p = DBSCANParams(eps=0.5, min_pts=3)
        assert p.eps == 0.5 and p.min_pts == 3

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_eps(self, eps):
        with pytest.raises(ValueError):
            DBSCANParams(eps=eps, min_pts=3)

    @pytest.mark.parametrize("min_pts", [0, -5, 2.5])
    def test_invalid_min_pts(self, min_pts):
        with pytest.raises(ValueError):
            DBSCANParams(eps=0.5, min_pts=min_pts)


def reference_canonicalize(labels: np.ndarray) -> np.ndarray:
    """The per-cluster loop ``canonicalize_labels`` replaced: the test oracle."""
    labels = np.asarray(labels)
    out = np.full(labels.shape, NOISE, dtype=np.int64)
    seen: dict[int, int] = {}
    next_id = 0
    clustered = np.flatnonzero(labels >= 0)
    for idx in clustered:
        lab = int(labels[idx])
        if lab not in seen:
            seen[lab] = next_id
            next_id += 1
    for old, new in seen.items():
        out[labels == old] = new
    return out


class TestCanonicalizeLabels:
    def test_renumbers_by_first_occurrence(self):
        labels = np.array([5, 5, -1, 2, 2, 5])
        out = canonicalize_labels(labels)
        np.testing.assert_array_equal(out, [0, 0, -1, 1, 1, 0])

    def test_noise_preserved(self):
        labels = np.array([-1, -1, -1])
        np.testing.assert_array_equal(canonicalize_labels(labels), [-1, -1, -1])

    def test_idempotent(self):
        labels = np.array([0, 1, -1, 1, 2])
        once = canonicalize_labels(labels)
        np.testing.assert_array_equal(once, canonicalize_labels(once))

    @given(
        labels=arrays(
            np.int64,
            st.integers(min_value=0, max_value=200),
            elements=st.integers(min_value=-3, max_value=40)
            | st.integers(min_value=0, max_value=2**62),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_reference_loop(self, labels):
        out = canonicalize_labels(labels)
        expected = reference_canonicalize(labels)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == expected.dtype


def reference_labels_from_roots(roots, core_mask, member) -> np.ndarray:
    """The per-point dict numbering ``labels_from_roots`` replaced: the test oracle."""
    clustered = np.flatnonzero(member & np.isin(roots, roots[core_mask]))
    root_to_label: dict[int, int] = {}
    for i in clustered:
        root_to_label.setdefault(int(roots[i]), len(root_to_label))
    labels = np.full(roots.shape[0], NOISE, dtype=np.int64)
    labels[clustered] = [root_to_label[int(roots[i])] for i in clustered]
    return labels


class TestLabelsFromRoots:
    def test_basic_two_clusters(self):
        roots = np.array([0, 0, 0, 3, 3, 5])
        core = np.array([True, True, False, True, True, False])
        # Without an assigned_mask only core points are cluster members; the
        # non-core point sharing root 0 stays noise (it was never attached).
        labels = labels_from_roots(roots, core)
        np.testing.assert_array_equal(labels, [0, 0, -1, 1, 1, -1])
        # With it marked as attached it joins cluster 0.
        assigned = np.array([False, False, True, False, False, False])
        labels = labels_from_roots(roots, core, assigned_mask=assigned)
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, -1])

    def test_set_without_core_is_noise(self):
        roots = np.array([0, 0, 2, 2])
        core = np.array([True, True, False, False])
        labels = labels_from_roots(roots, core)
        np.testing.assert_array_equal(labels, [0, 0, -1, -1])

    def test_assigned_mask_marks_border_points(self):
        roots = np.array([0, 0, 0, 3])
        core = np.array([True, True, False, False])
        assigned = np.array([False, False, True, False])
        labels = labels_from_roots(roots, core, assigned_mask=assigned)
        np.testing.assert_array_equal(labels, [0, 0, 0, -1])

    def test_no_core_points_all_noise(self):
        roots = np.arange(5)
        core = np.zeros(5, dtype=bool)
        assert (labels_from_roots(roots, core) == NOISE).all()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=80),
        m=st.integers(min_value=0, max_value=160),
        core_frac=st.floats(min_value=0.0, max_value=1.0),
        assigned_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_output_is_already_canonical(
        self, seed, n, m, core_frac, assigned_frac
    ):
        # Cluster formation returns labels_from_roots unchanged: that is only
        # sound if canonicalize_labels is an identity on its output.
        rng = np.random.default_rng(seed)
        forest = ParallelDisjointSet(n)
        forest.union_edges(rng.integers(0, n, m), rng.integers(0, n, m))
        core = rng.random(n) < core_frac
        assigned = rng.random(n) < assigned_frac
        labels = labels_from_roots(forest.roots(), core, assigned_mask=assigned)
        canonical = canonicalize_labels(labels)
        np.testing.assert_array_equal(canonical, labels)
        assert canonical.dtype == labels.dtype

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=120),
        m=st.integers(min_value=0, max_value=240),
        core_frac=st.floats(min_value=0.0, max_value=1.0),
        assigned_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_reference_numbering(self, seed, n, m, core_frac, assigned_frac):
        rng = np.random.default_rng(seed)
        forest = ParallelDisjointSet(n)
        forest.union_edges(rng.integers(0, n, m), rng.integers(0, n, m))
        roots, core = forest.roots(), rng.random(n) < core_frac
        assigned = rng.random(n) < assigned_frac
        out = labels_from_roots(roots, core, assigned_mask=assigned)
        expected = reference_labels_from_roots(roots, core, core | assigned)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == expected.dtype

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            labels_from_roots(np.arange(4), np.zeros(3, dtype=bool))


class TestClassifyPoints:
    def test_classes(self):
        core = np.array([True, False, False])
        labels = np.array([0, 0, -1])
        out = classify_points(core, labels)
        assert out.tolist() == [PointClass.CORE, PointClass.BORDER, PointClass.NOISE]


class TestDBSCANResult:
    def _result(self):
        labels = np.array([0, 0, 1, -1, 1, 0])
        core = np.array([True, True, True, False, False, False])
        return DBSCANResult(labels=labels, core_mask=core, params=DBSCANParams(1.0, 2))

    def test_counts(self):
        r = self._result()
        assert r.num_points == 6
        assert r.num_clusters == 2
        assert r.num_noise == 1
        assert r.border_mask.sum() == 2

    def test_cluster_sizes(self):
        np.testing.assert_array_equal(self._result().cluster_sizes(), [3, 2])

    def test_summary(self):
        s = self._result().summary()
        assert s["num_clusters"] == 2
        assert s["num_border"] == 2
        assert s["num_noise"] == 1
