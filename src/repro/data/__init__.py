"""Synthetic equivalents of the paper's evaluation datasets.

The real 3DRoad / Porto / NGSIM / 3DIono datasets are not redistributable
here, so each has a generator that reproduces its spatial character (density
profile, dimensionality, extent) — see ``docs/paper_mapping.md`` for the
substitution rationale.  Generic generators (blobs, rings, moons, trajectories) back the
tests and examples.
"""

from .iono3d import IONO3D_DEFAULTS, generate_iono3d
from .ngsim import NGSIM_DEFAULTS, generate_ngsim
from .porto import PORTO_DEFAULTS, generate_porto
from .registry import DATASETS, DatasetSpec, generate, get_dataset, list_datasets
from .road3d import ROAD3D_DEFAULTS, generate_road3d
from .stream import (
    STREAMS,
    burst_hotspot_stream,
    chunk_stream,
    drift_blob_stream,
    interleave_feeds,
    list_streams,
    make_stream,
    multi_tenant_feeds,
    ngsim_replay_stream,
)
from .synthetic import (
    combine,
    make_blobs,
    make_moons,
    make_rings,
    make_trajectory,
    make_uniform_noise,
)

__all__ = [
    "IONO3D_DEFAULTS",
    "generate_iono3d",
    "NGSIM_DEFAULTS",
    "generate_ngsim",
    "PORTO_DEFAULTS",
    "generate_porto",
    "DATASETS",
    "DatasetSpec",
    "generate",
    "get_dataset",
    "list_datasets",
    "ROAD3D_DEFAULTS",
    "generate_road3d",
    "STREAMS",
    "burst_hotspot_stream",
    "chunk_stream",
    "drift_blob_stream",
    "interleave_feeds",
    "list_streams",
    "make_stream",
    "multi_tenant_feeds",
    "ngsim_replay_stream",
    "combine",
    "make_blobs",
    "make_moons",
    "make_rings",
    "make_trajectory",
    "make_uniform_noise",
]
