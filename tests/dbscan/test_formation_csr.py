"""form_clusters_csr: CSR-consuming stage 2 is bit-identical to a pair oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency import csr_row_ids, pairs_to_csr
from repro.api.registry import make_backend
from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.data.synthetic import make_blobs
from repro.dbscan.disjoint_set import ParallelDisjointSet
from repro.dbscan.formation import FormationResult, form_clusters_csr
from repro.dbscan.labels import labels_from_roots


def _formation_from_pairs(
    q_hit: np.ndarray, p_hit: np.ndarray, core_mask: np.ndarray
) -> FormationResult:
    """Oracle: stage 2 from flat ``(query, neighbour)`` pair arrays.

    Core-row pairs are split into core–core union edges and border
    attachments, which go through one batched union pass and a
    lowest-core-first attach — the same semantics ``form_clusters_csr``
    implements on the CSR rows.
    """
    core_mask = np.asarray(core_mask, dtype=bool)
    n = core_mask.shape[0]
    q_hit = np.asarray(q_hit, dtype=np.intp)
    p_hit = np.asarray(p_hit, dtype=np.intp)
    from_core = core_mask[q_hit]
    cq, cp = q_hit[from_core], p_hit[from_core]
    both_core = core_mask[cp]

    forest = ParallelDisjointSet(n)
    forest.union_edges(cq[both_core], cp[both_core])
    children, parents = cp[~both_core], cq[~both_core]
    order = np.lexsort((parents, children))
    forest.attach(children[order], parents[order])
    assigned = np.zeros(n, dtype=bool)
    assigned[children] = True
    return FormationResult(
        labels=labels_from_roots(forest.roots(), core_mask, assigned_mask=assigned),
        num_unions=forest.num_unions,
        num_atomics=forest.num_atomics,
    )


def _random_adjacency(rng: np.random.Generator, n: int, m: int):
    """A random symmetric pair multiset (both directions, no self pairs)."""
    a = rng.integers(0, n, size=m)
    b = rng.integers(0, n, size=m)
    keep = a != b
    a, b = a[keep], b[keep]
    q = np.concatenate([a, b])
    p = np.concatenate([b, a])
    return q, p


class TestFormClustersCSR:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_core_fraction", [0.0, 0.4, 1.0])
    def test_matches_pair_formation(self, seed, min_core_fraction):
        rng = np.random.default_rng(seed)
        n = 300
        q, p = _random_adjacency(rng, n, 900)
        core = rng.random(n) < min_core_fraction
        indptr, indices = pairs_to_csr(q, p, n)

        ref = _formation_from_pairs(q, p, core)
        got = form_clusters_csr(indptr, indices, core)
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.num_unions == ref.num_unions
        assert got.num_atomics == ref.num_atomics

    @pytest.mark.parametrize("data", ["blobs", "ngsim"])
    @pytest.mark.parametrize("min_pts", [2, 5, 12])
    def test_matches_pair_formation_on_backend_adjacency(self, data, min_pts):
        if data == "blobs":
            pts, _ = make_blobs(420, centers=4, std=0.25, seed=11)
            eps = 0.3
        else:
            pts = generate("ngsim", 500, seed=29)
            eps = calibrate_eps(pts, 10, 0.5)
        backend = make_backend("kdtree", pts, eps)
        try:
            indptr, indices, _ = backend.neighbor_csr()
        finally:
            backend.release()
        core = np.diff(indptr) >= min_pts
        ref = _formation_from_pairs(csr_row_ids(indptr), indices, core)
        got = form_clusters_csr(indptr, indices, core)
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.num_unions == ref.num_unions
        assert got.num_atomics == ref.num_atomics

    def test_empty_adjacency_all_noise(self):
        core = np.zeros(10, dtype=bool)
        res = form_clusters_csr(np.zeros(11, dtype=np.int64), np.empty(0, dtype=np.intp), core)
        assert (res.labels == -1).all()
        assert res.num_unions == 0 and res.num_atomics == 0

    def test_isolated_core_points_form_singletons(self):
        core = np.ones(4, dtype=bool)
        res = form_clusters_csr(np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.intp), core)
        np.testing.assert_array_equal(res.labels, [0, 1, 2, 3])

    def test_border_attaches_to_lowest_core(self):
        # Point 2 is border, within eps of cores 0 and 1 (different clusters):
        # the deterministic rule attaches it to the lowest-indexed core.
        core = np.array([True, True, False])
        q = np.array([0, 1])
        p = np.array([2, 2])
        indptr, indices = pairs_to_csr(q, p, 3)
        res = form_clusters_csr(indptr, indices, core)
        assert res.labels[2] == res.labels[0]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=80),
        m=st.integers(min_value=0, max_value=400),
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_pairs_vs_csr(self, seed, n, m, threshold):
        rng = np.random.default_rng(seed)
        q, p = _random_adjacency(rng, n, m)
        core = rng.random(n) < threshold
        indptr, indices = pairs_to_csr(q, p, n)
        ref = _formation_from_pairs(q, p, core)
        got = form_clusters_csr(indptr, indices, core)
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.num_unions == ref.num_unions
        assert got.num_atomics == ref.num_atomics
