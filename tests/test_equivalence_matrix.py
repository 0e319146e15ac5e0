"""Cross-layer equivalence matrix.

THE correctness table of the exact tier, in one place: every exact neighbour
backend (rt / grid / kdtree / brute) x every execution layer (monolithic,
tiled with eps-halo merge, streaming eviction-free) must produce labels
bit-identical to the brute-force oracle on both a clustered synthetic
dataset and an NGSIM sample.  This table-driven suite replaces the scattered
per-module copies of the same assertion (previously duplicated in
tests/neighbors/test_backends.py and tests/partition/test_tiled.py).

The approximate tier (lsh / sampled) is deliberately absent: its contract is
quantified agreement, not bit-identity — see tests/neighbors/test_approx.py
and tests/properties/test_approx_monotonic.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import get_backend, list_backends
from repro.bench.experiments import calibrate_eps
from repro.data.registry import generate
from repro.data.synthetic import make_blobs, make_uniform_noise
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.metrics.agreement import compare_results
from repro.partition.tiled import TiledRTDBSCAN
from repro.streaming import StreamingRTDBSCAN

EXACT_BACKENDS = ("rt", "grid", "kdtree", "brute")
MIN_PTS = 8

#: every (layer, backend) cell of the matrix; the streaming engine is
#: hard-wired to the rt scene, so it contributes a single cell.
CELLS = (
    [("monolithic", b) for b in EXACT_BACKENDS]
    + [("tiled", b) for b in EXACT_BACKENDS]
    + [("streaming", "rt")]
)


def eps_boundary_points(eps: float) -> np.ndarray:
    """Three centres, each with 3 copies of each axis offset ±ε (39 points)."""
    offsets = np.array([[eps, 0.0], [-eps, 0.0], [0.0, eps], [0.0, -eps]])
    centres = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    return np.vstack([np.vstack([c, np.repeat(c + offsets, 3, axis=0)]) for c in centres])


@pytest.fixture(scope="module")
def datasets(boundary_eps):
    pts, _ = make_blobs(
        700, centers=np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 4.0]]), std=0.25, seed=7
    )
    noise = make_uniform_noise(70, low=-2.0, high=6.0, dim=2, seed=8)
    blobs = np.vstack([pts, noise])
    ngsim = generate("ngsim", 1000, seed=2023)
    return {
        "blobs": (blobs, 0.3),
        "ngsim": (ngsim, calibrate_eps(ngsim, MIN_PTS, 0.30)),
        # Pairs exactly ε apart: each centre is core only if its 12 offset
        # copies count as neighbours.
        "eps-boundary": (eps_boundary_points(boundary_eps), boundary_eps),
    }


@pytest.fixture(scope="module")
def references(datasets):
    """The exact oracle labelling per dataset (index-free brute force)."""
    return {
        name: RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend="brute").fit(pts)
        for name, (pts, eps) in datasets.items()
    }


def _fit(layer: str, backend: str, pts: np.ndarray, eps: float):
    if layer == "monolithic":
        return RTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=backend).fit(pts)
    if layer == "tiled":
        return TiledRTDBSCAN(eps=eps, min_pts=MIN_PTS, backend=backend, tiles=5).fit(pts)
    assert layer == "streaming"
    # Eviction-free feed: no window, so the final state covers every point
    # and must equal the batch labelling exactly.
    engine = StreamingRTDBSCAN(eps=eps, min_pts=MIN_PTS)
    for lo in range(0, pts.shape[0], 250):
        engine.update(pts[lo : lo + 250])
    return engine.result()


class TestEquivalenceMatrix:
    def test_references_are_non_trivial(self, references):
        assert references["blobs"].num_clusters >= 3
        assert references["blobs"].num_noise > 0
        assert references["eps-boundary"].num_clusters == 3

    @pytest.mark.parametrize("data", ["blobs", "ngsim", "eps-boundary"])
    @pytest.mark.parametrize(
        "layer,backend", CELLS, ids=[f"{layer}-{backend}" for layer, backend in CELLS]
    )
    def test_cell_is_bit_identical_to_oracle(self, datasets, references, data, layer, backend):
        pts, eps = datasets[data]
        ref = references[data]
        result = _fit(layer, backend, pts, eps)
        np.testing.assert_array_equal(result.labels, ref.labels)
        np.testing.assert_array_equal(result.core_mask, ref.core_mask)
        if result.neighbor_counts is not None and ref.neighbor_counts is not None:
            np.testing.assert_array_equal(result.neighbor_counts, ref.neighbor_counts)
        report = compare_results(ref, result, points=pts)
        assert report.equivalent, report.as_dict()
        assert report.ari == 1.0

    def test_matrix_covers_every_registered_exact_backend(self):
        """New exact backends must be added to this table."""
        exact = {b for b in list_backends() if get_backend(b).exact}
        assert exact == set(EXACT_BACKENDS)
