"""The CSR adjacency contract: every backend, same canonical bytes.

Property suite for the zero-materialisation pair pipeline:

* the CSR each backend emits holds exactly the ε-pairs of a naive
  all-pairs sweep computed independently here;
* the CSR is canonical — query-ordered rows, ascending indices — so all
  four backends produce *byte-identical* arrays;
* ``form_clusters_csr`` output is bit-identical for any row segmentation of
  the same adjacency (including the charged union/atomic counts);
* on every registered backend, counts equal the CSR row lengths and record
  what the CSR launch records, and a ``rows=`` fill is byte for byte those
  rows of the full CSR — what stage 2 rests on;
* no backend materialises a full ε-pair (or candidate-pair) intermediate:
  the tracemalloc peak of a ``neighbor_csr`` sweep stays within a block-sized
  budget that the legacy pipeline exceeded by an order of magnitude.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.adjacency import concat_csr, csr_row_ids, expand_ranges, pairs_to_csr
from repro.api.registry import list_backends, make_backend
from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.data.synthetic import make_blobs
from repro.dbscan.formation import form_clusters_csr
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.native import dispatch
from repro.rtcore.device import RTDevice

BACKENDS = ["rt", "grid", "kdtree", "brute"]
TIERS = [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        not dispatch.available(), reason="native kernel tier unavailable")),
]


def _naive_pairs(qpts: np.ndarray, data: np.ndarray, eps: float, *, self_query: bool):
    """Independent oracle: the ε-pairs as flat arrays, computed the naive way."""
    d2 = ((qpts[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
    q, p = np.nonzero(d2 <= eps * eps)
    if self_query:
        keep = q != p
        q, p = q[keep], p[keep]
    return q, p


def _lift(pts: np.ndarray) -> np.ndarray:
    if pts.shape[1] == 3:
        return pts
    return np.hstack([pts, np.zeros((pts.shape[0], 1))])


@pytest.fixture(scope="module")
def blobs():
    pts, _ = make_blobs(420, centers=4, std=0.25, seed=11)
    return pts, 0.3


@pytest.fixture(scope="module")
def duplicates(duplicate_points):
    return duplicate_points, 0.2


@pytest.fixture(scope="module")
def ngsim():
    pts = generate("ngsim", 500, seed=29)
    return pts, calibrate_eps(pts, 10, 0.5)


class TestCSRMatchesLegacyPairs:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("data", ["blobs", "ngsim"])
    def test_permutation_identical_to_pair_arrays(self, request, name, data):
        pts, eps = request.getfixturevalue(data)
        q_ref, p_ref = _naive_pairs(_lift(pts), _lift(pts), eps, self_query=True)
        backend = make_backend(name, pts, eps)
        try:
            indptr, indices, _ = backend.neighbor_csr()
        finally:
            backend.release()
        q, p = csr_row_ids(indptr), indices
        assert set(zip(q.tolist(), p.tolist())) == set(zip(q_ref.tolist(), p_ref.tolist()))
        assert q.size == q_ref.size  # multiset, not just set

    @pytest.mark.parametrize("name", list_backends())
    @pytest.mark.parametrize("queries", ["dataset", "external"])
    def test_csr_is_canonical(self, blobs, name, queries):
        """Canonical rows, whose lengths the count launch returns at equal charge.

        Stage 2 rests on the last two: it sizes the core rows by the stage-1
        counts and charges its launch as the stage-1 counts again.
        """
        pts, eps = blobs
        q = None
        if queries == "external":
            q = np.random.default_rng(5).uniform(pts.min(), pts.max(), size=(40, pts.shape[1]))
        backend = make_backend(name, pts, eps, device=RTDevice())
        try:
            indptr, indices, csr_stats = backend.neighbor_csr(q)
            counts, count_stats = backend.neighbor_counts(q)
        finally:
            backend.release()
        assert indptr.shape == (len(pts if q is None else q) + 1,)
        assert indptr[0] == 0 and indptr[-1] == indices.size
        assert counts.tobytes() == np.diff(indptr).tobytes()
        assert count_stats.counts.as_dict() == csr_stats.counts.as_dict()
        assert count_stats.counts.kernel_launches == 1
        assert count_stats.simulated_seconds == csr_stats.simulated_seconds
        rows = csr_row_ids(indptr)
        # ascending indices within every row <=> (row, index) lexicographic
        order = np.lexsort((indices, rows))
        np.testing.assert_array_equal(order, np.arange(indices.size))

    @pytest.mark.parametrize("data", ["blobs", "ngsim"])
    def test_all_backends_byte_identical(self, request, data):
        pts, eps = request.getfixturevalue(data)
        results = {}
        for name in BACKENDS:
            backend = make_backend(name, pts, eps)
            try:
                results[name] = backend.neighbor_csr()[:2]
            finally:
                backend.release()
        ref_ptr, ref_idx = results["brute"]
        for name, (indptr, indices) in results.items():
            np.testing.assert_array_equal(indptr, ref_ptr, err_msg=name)
            np.testing.assert_array_equal(indices, ref_idx, err_msg=name)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_external_queries(self, blobs, name):
        pts, eps = blobs
        rng = np.random.default_rng(5)
        queries = rng.uniform(pts.min(), pts.max(), size=(40, pts.shape[1]))
        q_ref, p_ref = _naive_pairs(_lift(queries), _lift(pts), eps, self_query=False)
        backend = make_backend(name, pts, eps)
        try:
            indptr, indices, _ = backend.neighbor_csr(queries)
        finally:
            backend.release()
        q, p = csr_row_ids(indptr), indices
        assert set(zip(q.tolist(), p.tolist())) == set(zip(q_ref.tolist(), p_ref.tolist()))
        assert q.size == q_ref.size


def _csr_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """Rows ``rows`` of a CSR adjacency, cut out independently."""
    counts = np.diff(indptr)[rows]
    sub_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_ptr[1:])
    return sub_ptr, indices[expand_ranges(indptr[:-1][rows], counts)]


class TestRowsFill:
    """``neighbor_csr(rows=..., row_counts=...)``, the stage-2 fill.

    RT-DBSCAN fills only the core rows, sized by their stage-1 counts, so a
    ``rows=`` fill must be exactly those rows of the full CSR.  Like every
    launch, its stats carry its own counts, priced by the device cost model
    (RT-DBSCAN records its stage 2 as the stage-1 counts instead).  On the
    duplicates set each query drops only its own id, never a coincident
    twin.
    """

    @pytest.mark.parametrize("name, kwargs", [
        *(pytest.param(name, {}, id=name) for name in list_backends()),
        pytest.param("rt", {"triangle_mode": True}, id="rt-triangles"),
    ])
    @pytest.mark.parametrize("native", TIERS)
    @pytest.mark.parametrize("case", ["empty", "unsorted", "every"])
    @pytest.mark.parametrize("data", ["blobs", "duplicates"])
    def test_rows_fill_is_those_rows(self, request, data, name, kwargs, native, case):
        pts, eps = request.getfixturevalue(data)
        n = len(pts)
        rows = {
            "empty": np.empty(0, dtype=np.intp),
            "unsorted": np.random.default_rng(3).choice(n, size=n // 3, replace=False),
            "every": np.arange(n),
        }[case]
        device = RTDevice()
        with dispatch.override(native):
            backend = make_backend(name, pts, eps, device=device, **kwargs)
            try:
                counts, count_stats = backend.neighbor_counts()
                indptr, indices, stats = backend.neighbor_csr()
                sub_ptr, sub_idx, sub_stats = backend.neighbor_csr(
                    rows=rows, row_counts=counts[rows]
                )
            finally:
                backend.release()
        for launch in (count_stats, stats, sub_stats):
            assert launch.simulated_seconds == device.cost_model.time_s(launch.counts)
        assert sub_stats.counts.kernel_launches == int(rows.size > 0)
        if case == "every":
            assert sub_stats.counts.as_dict() == stats.counts.as_dict()
        ref_ptr, ref_idx = _csr_rows(indptr, indices, rows)
        assert (sub_ptr.dtype, sub_idx.dtype) == (ref_ptr.dtype, ref_idx.dtype)
        assert sub_ptr.tobytes() == ref_ptr.tobytes()
        assert sub_idx.tobytes() == ref_idx.tobytes()

    @pytest.mark.parametrize("name", ["rt", "kdtree", "grid"])
    @pytest.mark.parametrize("native", TIERS)
    def test_seeded_fill_rejects_wrong_counts(self, blobs, name, native):
        """A seeded fill checks the counts that sized it."""
        pts, eps = blobs
        rows = np.arange(0, len(pts), 5)
        with dispatch.override(native):
            backend = make_backend(name, pts, eps)
            try:
                counts, _ = backend.neighbor_counts()
                too_few = counts[rows].copy()
                too_few[-1] -= 1  # the last row would overrun the buffer
                for bad in (too_few, counts[rows] + 1, counts[rows][:-1]):
                    with pytest.raises(ValueError, match="row_counts"):
                        backend.neighbor_csr(rows=rows, row_counts=bad)
            finally:
                backend.release()

    def test_triangle_fill_rejects_wrong_counts(self):
        """Triangle mode cannot seed its launch, but still checks the counts."""
        pts, _ = make_blobs(400, centers=3, std=0.3, seed=1)
        rows = np.arange(50)
        backend = make_backend("rt", pts, 0.3, triangle_mode=True)
        try:
            counts, _ = backend.neighbor_counts()
            sub_ptr, _, _ = backend.neighbor_csr(rows=rows, row_counts=counts[rows])
            np.testing.assert_array_equal(np.diff(sub_ptr), counts[rows])
            with pytest.raises(ValueError, match="row_counts"):
                backend.neighbor_csr(rows=rows, row_counts=counts[rows] + 7)
        finally:
            backend.release()

    @pytest.mark.skipif(not dispatch.available(), reason="native kernel tier unavailable")
    def test_grid_fit_fills_its_core_rows_in_one_pass(self, monkeypatch):
        """Stage 1 counts every point; stage 2 fills the core rows, seeded by those counts."""
        calls = []
        original = dispatch.NativeKernels.grid_scan

        def counting(self, *args, **kwargs):
            mode = "count" if kwargs.get("indices") is None else "fill"
            calls.append((args[0].shape[0], mode))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(dispatch.NativeKernels, "grid_scan", counting)
        pts = generate("blobs", 3000, seed=0)
        eps = calibrate_eps(pts, 10, 0.30)
        with dispatch.override(True):
            result = RTDBSCAN(eps=eps, min_pts=10, backend="grid").fit(pts)
        assert int(result.core_mask.sum()) == 900
        assert calls == [(3000, "count"), (900, "fill")]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_rows_must_be_point_ids(self, blobs, name):
        pts, eps = blobs
        backend = make_backend(name, pts, eps)
        try:
            for bad in ([0, len(pts)], [-1], [[0, 1]], [0.0, 1.0]):
                with pytest.raises(ValueError, match="rows"):
                    backend.neighbor_csr(rows=np.asarray(bad))
            with pytest.raises(ValueError, match="queries or rows"):
                backend.neighbor_csr(pts[:3], rows=np.arange(3))
        finally:
            backend.release()


class TestFormationEquivalence:
    def test_segmented_rows_match_dense_rows(self, blobs):
        """The tiled merge's segmented CSR (shuffled row blocks) is equivalent."""
        pts, eps = blobs
        backend = make_backend("brute", pts, eps)
        try:
            counts, _ = backend.neighbor_counts()
            indptr, indices, _ = backend.neighbor_csr()
        finally:
            backend.release()
        core = counts >= 5
        dense = form_clusters_csr(indptr, indices, core)

        # Split the rows into four contiguous shards, reassemble out of order.
        n = len(pts)
        cuts = [0, n // 4, n // 2, 3 * n // 4, n]
        shard_order = [2, 0, 3, 1]
        parts, rows = [], []
        row_counts = np.diff(indptr)
        for s in shard_order:
            lo, hi = cuts[s], cuts[s + 1]
            shard_counts = row_counts[lo:hi]
            shard_ptr = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(shard_counts, out=shard_ptr[1:])
            shard_idx = indices[expand_ranges(indptr[lo:hi], shard_counts)]
            parts.append((shard_ptr, shard_idx))
            rows.append(np.arange(lo, hi))
        seg_ptr, seg_idx = concat_csr(parts)
        segmented = form_clusters_csr(seg_ptr, seg_idx, core, rows=np.concatenate(rows))

        np.testing.assert_array_equal(segmented.labels, dense.labels)
        assert segmented.num_unions == dense.num_unions
        assert segmented.num_atomics == dense.num_atomics

    def test_pairs_to_csr_round_trip(self, blobs):
        pts, eps = blobs
        q_ref, p_ref = _naive_pairs(_lift(pts), _lift(pts), eps, self_query=True)
        rng = np.random.default_rng(0)
        perm = rng.permutation(q_ref.size)
        indptr, indices = pairs_to_csr(q_ref[perm], p_ref[perm], len(pts))
        q, p = csr_row_ids(indptr), indices
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(p, p_ref)


class TestNoFullPairMaterialisation:
    """The peak-intermediate assertion of the acceptance criteria.

    At 20 K points the legacy pipeline's smallest intermediate was the brute
    backend's ``(2048, n, 3)`` broadcast temporary (~1 GiB) and the RT
    backend's full candidate pair arrays; the CSR pipeline's peak must stay
    within a block-sized budget far below that.
    """

    N = 20_000
    #: generous per-backend peaks (bytes) — each at least 3x below the
    #: smallest legacy intermediate for that backend at this size.
    BUDGETS = {
        "brute": 300 * 2**20,  # one 512-row prescreen block ~80 MiB
        "rt": 150 * 2**20,
        "grid": 150 * 2**20,
        "kdtree": 150 * 2**20,
    }

    @pytest.fixture(scope="class")
    def dense_blobs(self):
        pts, _ = make_blobs(self.N, centers=8, std=0.15, box=10.0, seed=3)
        eps = calibrate_eps(pts, 10, 0.3, sample=4096, seed=0)
        return pts, eps

    @pytest.mark.parametrize("name", BACKENDS)
    def test_csr_peak_memory_bounded(self, dense_blobs, name):
        pts, eps = dense_blobs
        backend = make_backend(name, pts, eps)
        try:
            tracemalloc.start()
            tracemalloc.reset_peak()
            indptr, indices, _ = backend.neighbor_csr()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        finally:
            backend.release()
        assert indices.size > 10 * self.N  # the sweep actually found work
        assert peak < self.BUDGETS[name], (
            f"{name}: peak {peak / 2**20:.0f} MiB exceeds the "
            f"{self.BUDGETS[name] / 2**20:.0f} MiB zero-materialisation budget"
        )
