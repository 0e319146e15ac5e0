"""Tests for the algorithm/backend registries and the ClustererSpec."""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest

import repro
from repro.api import registry as reg
from repro.api import ClustererSpec, make_clusterer
from repro.api.protocol import Clusterer, ClustererMixin
from repro.api.registry import (
    get_algorithm,
    get_backend,
    list_algorithms,
    list_backends,
    resolve_algorithm,
)
from repro.data.synthetic import make_blobs
from repro.dbscan.rt_dbscan import RTDBSCAN
from repro.partition.tiled import TiledRTDBSCAN


@pytest.fixture()
def blobs():
    pts, _ = make_blobs(300, centers=2, std=0.2, seed=11)
    return pts


class TestRegistryContents:
    def test_builtin_algorithms_registered(self):
        expected = {
            "rt-dbscan", "rt-dbscan-triangles", "fdbscan", "fdbscan-earlyexit",
            "g-dbscan", "cuda-dclust+", "classic", "streaming-rt-dbscan",
        }
        assert expected <= set(list_algorithms())

    def test_builtin_backends_registered(self):
        assert {"rt", "grid", "kdtree", "brute"} <= set(list_backends())

    def test_lookup_is_case_insensitive(self):
        assert get_algorithm("RT-DBSCAN").name == "rt-dbscan"
        assert get_backend("KDTree").name == "kdtree"

    def test_entries_carry_capabilities(self):
        assert get_algorithm("rt-dbscan").supports_backend
        assert get_algorithm("streaming-rt-dbscan").supports_backend


class TestRegistryRoundTrip:
    def test_register_resolve_build(self, blobs):
        @reg.register_algorithm("test-null-clusterer", description="everything is noise")
        class NullClusterer(ClustererMixin):
            def __init__(self, eps, min_pts, device=None):
                self.eps, self.min_pts = eps, min_pts

            def fit(self, points):
                from repro.dbscan.params import DBSCANParams, DBSCANResult

                n = np.atleast_2d(points).shape[0]
                return DBSCANResult(
                    labels=np.full(n, -1, dtype=np.int64),
                    core_mask=np.zeros(n, dtype=bool),
                    params=DBSCANParams(eps=self.eps, min_pts=self.min_pts),
                    algorithm="test-null-clusterer",
                )

        try:
            entry, backend = resolve_algorithm("test-null-clusterer")
            assert backend is None and entry.factory is NullClusterer
            clusterer = make_clusterer(
                ClustererSpec(algo="test-null-clusterer", eps=0.5, min_pts=3)
            )
            assert isinstance(clusterer, Clusterer)
            result = clusterer.fit(blobs)
            assert result.num_noise == len(blobs)
            np.testing.assert_array_equal(clusterer.fit_predict(blobs), result.labels)
        finally:
            reg._ALGORITHMS.pop("test-null-clusterer", None)

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            reg.register_algorithm("rt-dbscan")(lambda **kw: None)
        with pytest.raises(ValueError, match="already registered"):
            reg.register_backend("grid")(lambda *a, **kw: None)

    def test_unknown_algorithm_lists_available(self):
        with pytest.raises(KeyError, match="rt-dbscan"):
            get_algorithm("hdbscan")

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="kdtree"):
            get_backend("octree")

    def test_at_spelling_resolves_backend(self):
        entry, backend = resolve_algorithm("rt-dbscan@grid")
        assert entry.name == "rt-dbscan"
        assert backend == "grid"

    def test_at_spelling_rejected_for_non_backend_algorithms(self):
        with pytest.raises(ValueError, match="does not accept"):
            resolve_algorithm("fdbscan@grid")

    def test_at_spelling_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            resolve_algorithm("rt-dbscan@octree")


class TestExactBackendsOnly:
    """Every registered backend is exact; the approximate tier's names are gone."""

    def test_registry_holds_exactly_the_four_backends(self):
        assert list_backends() == ["brute", "grid", "kdtree", "rt"]

    @pytest.mark.parametrize("name", ["lsh", "sampled"])
    def test_approximate_backend_names_are_unknown(self, name):
        with pytest.raises(KeyError, match="unknown neighbour backend"):
            get_backend(name)
        with pytest.raises(KeyError):
            ClustererSpec(algo=f"rt-dbscan@{name}", eps=0.5).resolve()

    def test_approximate_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.neighbors.approx")

    def test_backend_entries_carry_no_exactness_metadata(self):
        fields = {f.name for f in dataclasses.fields(reg.BackendEntry)}
        assert not fields & {"exact", "knobs"}

    @pytest.mark.parametrize("cls", [RTDBSCAN, TiledRTDBSCAN], ids=lambda c: c.__name__)
    def test_clusterers_take_no_backend_kwargs(self, cls):
        with pytest.raises(TypeError, match="backend_kwargs"):
            cls(eps=0.5, min_pts=5, backend_kwargs={})

    def test_facade_takes_no_reference(self, blobs):
        with pytest.raises(TypeError, match="reference"):
            repro.cluster(blobs, eps=0.5, min_pts=5, reference=True)


class TestClustererSpec:
    def test_invalid_eps_raises(self):
        with pytest.raises(ValueError):
            ClustererSpec(eps=-1.0)
        with pytest.raises(ValueError):
            ClustererSpec(eps=float("nan"))

    def test_invalid_min_pts_raises(self):
        with pytest.raises(ValueError):
            ClustererSpec(eps=0.5, min_pts=0)

    def test_backend_conflict_raises(self):
        spec = ClustererSpec(algo="rt-dbscan@grid", eps=0.5, backend="kdtree")
        with pytest.raises(ValueError, match="conflicting"):
            spec.resolve()

    def test_consistent_at_and_field_backend_ok(self):
        spec = ClustererSpec(algo="rt-dbscan@grid", eps=0.5, backend="grid")
        _, backend = spec.resolve()
        assert backend == "grid"

    def test_backend_on_non_backend_algorithm_raises(self):
        with pytest.raises(ValueError, match="does not accept"):
            ClustererSpec(algo="fdbscan", eps=0.5, backend="grid").resolve()

    def test_make_clusterer_requires_eps(self):
        with pytest.raises(ValueError, match="eps"):
            make_clusterer(ClustererSpec(algo="rt-dbscan", min_pts=5))

    def test_make_clusterer_rejects_non_spec(self):
        with pytest.raises(TypeError):
            make_clusterer("rt-dbscan")

    def test_params_forwarded_to_factory(self, blobs):
        spec = ClustererSpec(
            algo="rt-dbscan", eps=0.5, min_pts=5, params={"keep_neighbor_counts": False}
        )
        result = make_clusterer(spec).fit(blobs)
        assert result.neighbor_counts is None

    def test_as_dict_round_trip(self):
        spec = ClustererSpec(algo="rt-dbscan", eps=0.5, min_pts=7, backend="grid",
                             params={"builder": "sah"})
        d = spec.as_dict()
        assert ClustererSpec(**d) == spec


class TestProtocols:
    def test_all_registered_algorithms_satisfy_protocol(self):
        for name in list_algorithms():
            entry = get_algorithm(name)
            clusterer = entry.factory(eps=0.5, min_pts=5, device=None)
            assert isinstance(clusterer, Clusterer), name

    def test_streaming_engine_is_a_clusterer_with_partial_fit(self):
        engine = repro.StreamingRTDBSCAN(eps=0.5, min_pts=5)
        assert isinstance(engine, Clusterer)
        assert engine.partial_fit(np.zeros((3, 2))) is engine
