"""Experiment registry — one entry per table/figure of the paper.

Every experiment the paper reports is described by an :class:`ExperimentSpec`
that records the paper's configuration (dataset, sizes, ε values, minPts,
algorithms compared) and the *scaled* configuration the reproduction actually
runs.  Scaling is necessary because the substrate here is an instrumented
Python simulator rather than an RTX 2060: dataset sizes are reduced by a
documented factor and ε values are re-derived from the synthetic datasets'
density (using the k-distance heuristic) so that the neighbourhood-size
regimes match the paper's.  ``docs/paper_mapping.md`` maps every entry to
its figure or table and to what its benchmark checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.registry import generate
from ..data.stream import make_stream
from ..neighbors.knn import kth_neighbor_distances
from .runner import RunRecord, run_sweep

__all__ = [
    "calibrate_eps",
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "list_experiments",
    "StreamingExperimentSpec",
    "StreamingRunResult",
    "STREAMING_EXPERIMENTS",
    "get_streaming_experiment",
    "list_streaming_experiments",
    "run_streaming",
    "run_streaming_experiment",
    "run_service_experiment",
    "run_recovery_experiment",
]


def calibrate_eps(
    points: np.ndarray,
    min_pts: int,
    quantile: float,
    *,
    sample: int | None = None,
    seed: int | None = None,
) -> float:
    """Reference ε from the k-distance heuristic (shared by batch and stream).

    The k-th neighbour distance distribution is evaluated at the given
    quantile with ``k = min(min_pts, n - 1)`` — the procedure every
    experiment uses so that different runs on the same data are comparable.

    ``sample`` caps the number of points the heuristic evaluates: datasets
    larger than it are subsampled with ``np.random.default_rng(seed)``, so a
    fixed ``seed`` makes the calibration reproducible regardless of dataset
    size.  The default (``None``) evaluates every point, which is fully
    deterministic and needs no seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if sample is not None:
        if sample < 2:
            raise ValueError(f"sample must be at least 2, got {sample}")
        if points.shape[0] > sample:
            rng = np.random.default_rng(seed)
            idx = rng.choice(points.shape[0], size=sample, replace=False)
            points = points[np.sort(idx)]
    k = min(min_pts, points.shape[0] - 1)
    return float(np.quantile(kth_neighbor_distances(points, k), quantile))


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one paper experiment and its scaled reproduction."""

    id: str
    paper_ref: str
    title: str
    dataset: str
    mode: str  # "eps_sweep" | "size_sweep" | "breakdown" | "triangle_mode"
    algorithms: tuple[str, ...]
    baseline: str
    min_pts: int
    #: sizes the paper ran (for documentation).
    paper_sizes: tuple[int, ...]
    #: sizes the scaled reproduction runs by default.
    sizes: tuple[int, ...]
    #: ε multipliers applied to the calibrated reference ε (eps sweeps), or a
    #: single-element tuple for fixed-ε experiments.
    eps_factors: tuple[float, ...] = (1.0,)
    #: quantile used by the k-distance ε calibration; lower values give a
    #: sparser clustering regime.
    eps_quantile: float = 0.30
    #: absolute ε override (used for the NGSIM zero-cluster regime).
    eps_absolute: tuple[float, ...] | None = None
    seed: int = 2023
    description: str = ""
    notes: str = ""

    # ------------------------------------------------------------------ #
    def reference_size(self) -> int:
        return max(self.sizes)

    def calibrate_eps(self, points: np.ndarray) -> float:
        """Reference ε from the k-distance heuristic on the given points."""
        return calibrate_eps(points, self.min_pts, self.eps_quantile)

    def eps_values(self, points: np.ndarray) -> list[float]:
        """Concrete ε values for this experiment on the given points."""
        if self.eps_absolute is not None:
            return [float(e) for e in self.eps_absolute]
        ref = self.calibrate_eps(points)
        return [ref * f for f in self.eps_factors]

    def build_configs(self, *, scale: float = 1.0) -> list[tuple[str, np.ndarray, float, int]]:
        """Materialise the (label, points, eps, min_pts) configurations."""
        sizes = [max(256, int(round(s * scale))) for s in self.sizes]
        largest = generate(self.dataset, max(sizes), seed=self.seed)
        configs: list[tuple[str, np.ndarray, float, int]] = []
        if self.mode == "eps_sweep":
            pts = largest
            for eps in self.eps_values(pts):
                configs.append((self.dataset, pts, eps, self.min_pts))
        elif self.mode in ("size_sweep", "breakdown", "triangle_mode"):
            eps_list = self.eps_values(largest)
            eps = eps_list[0]
            for n in sizes:
                configs.append((self.dataset, largest[:n], eps, self.min_pts))
        else:
            raise ValueError(f"unknown experiment mode {self.mode!r}")
        return configs


# -------------------------------------------------------------------------- #
# The registry: one entry per table / figure in the evaluation section.
# -------------------------------------------------------------------------- #
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> ExperimentSpec:
    EXPERIMENTS[spec.id] = spec
    return spec


_register(ExperimentSpec(
    id="fig4",
    paper_ref="Figure 4",
    title="Speedup over CUDA-DClust+ on varying eps (16K 3DRoad points)",
    dataset="3droad",
    mode="eps_sweep",
    algorithms=("cuda-dclust+", "g-dbscan", "fdbscan", "rt-dbscan"),
    baseline="cuda-dclust+",
    min_pts=100,
    paper_sizes=(16_000,),
    sizes=(16_000,),
    eps_factors=(0.5, 0.75, 1.0, 1.5, 2.0),
    description="All four GPU implementations on the small dataset where the "
                "memory-hungry baselines still fit on the device.",
))

_register(ExperimentSpec(
    id="fig5a",
    paper_ref="Figure 5a",
    title="Speedup over FDBSCAN on varying eps (3DRoad)",
    dataset="3droad",
    mode="eps_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(400_000,),
    sizes=(24_000,),
    eps_factors=(0.5, 0.75, 1.0, 1.5, 2.0),
    description="Paper observes up to 1.5x on 3DRoad (BVH build dominates the small dataset).",
))

_register(ExperimentSpec(
    id="fig5b",
    paper_ref="Figure 5b",
    title="Speedup over FDBSCAN on varying eps (Porto)",
    dataset="porto",
    mode="eps_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(1_000_000,),
    sizes=(32_000,),
    eps_factors=(0.5, 0.75, 1.0, 1.5, 2.0),
    description="Paper observes up to 2.3x, increasing with eps.",
))

_register(ExperimentSpec(
    id="fig5c",
    paper_ref="Figure 5c",
    title="Speedup over FDBSCAN on varying eps (3DIono)",
    dataset="3diono",
    mode="eps_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(1_000_000,),
    sizes=(32_000,),
    eps_factors=(0.5, 0.75, 1.0, 1.5, 2.0),
    description="Paper observes up to 3.6x, increasing with eps.",
))

_register(ExperimentSpec(
    id="fig6a",
    paper_ref="Figure 6a",
    title="Speedup over FDBSCAN on varying dataset size (3DRoad)",
    dataset="3droad",
    mode="size_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(50_000, 100_000, 200_000, 400_000),
    sizes=(4_000, 8_000, 16_000, 32_000),
    eps_quantile=0.30,
    description="Paper observes a maximum of 1.37x on this relatively small dataset.",
))

_register(ExperimentSpec(
    id="fig6b",
    paper_ref="Figure 6b",
    title="Speedup over FDBSCAN on varying dataset size (Porto)",
    dataset="porto",
    mode="size_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
    sizes=(4_000, 8_000, 16_000, 32_000),
    description="Paper observes up to 2.9x at the largest sizes (paper minPts=1000 at 1M+ points).",
))

_register(ExperimentSpec(
    id="fig6c",
    paper_ref="Figure 6c",
    title="Speedup over FDBSCAN on varying dataset size (3DIono)",
    dataset="3diono",
    mode="size_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=10,
    paper_sizes=(500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
    sizes=(4_000, 8_000, 16_000, 32_000),
    description="Paper observes up to 4.1x at the largest sizes.",
))

_register(ExperimentSpec(
    id="fig7",
    paper_ref="Figure 7",
    title="Execution-time growth with dataset size (3DIono)",
    dataset="3diono",
    mode="size_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=10,
    paper_sizes=(500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
    sizes=(4_000, 8_000, 16_000, 32_000),
    description="Raw execution times; RT-DBSCAN's growth rate must be visibly slower.",
))

_register(ExperimentSpec(
    id="table1",
    paper_ref="Table I",
    title="Raw execution time on Porto, varying dataset size",
    dataset="porto",
    mode="size_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
    sizes=(4_000, 8_000, 16_000, 32_000),
    description="Paper: FDBSCAN 539.85s..282047s vs RT-DBSCAN 200.82s..96333s (2.7x-2.9x).",
))

_register(ExperimentSpec(
    id="table2",
    paper_ref="Table II / Figure 8a",
    title="Raw execution time and speedup on NGSIM, varying eps (dense, zero clusters)",
    dataset="ngsim",
    mode="eps_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(1_000_000,),
    sizes=(64_000,),
    eps_absolute=(0.0001, 0.00025, 0.0005, 0.00075, 0.001),
    description="Zero clusters form; the paper measures ~2500x, dominated by hardware effects "
                "our analytic model reproduces only in direction (RT-DBSCAN wins), not magnitude.",
))

_register(ExperimentSpec(
    id="table3",
    paper_ref="Table III / Figure 8b",
    title="Raw execution time and speedup on NGSIM, varying dataset size",
    dataset="ngsim",
    mode="size_sweep",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
    sizes=(8_000, 16_000, 32_000, 64_000),
    eps_absolute=(0.0005,),
    description="Paper: FDBSCAN 12.7s..6964s vs RT-DBSCAN 0.03s..1.26s.",
))

_register(ExperimentSpec(
    id="fig9a",
    paper_ref="Figure 9a",
    title="Early-exit impact on Porto (execution time vs dataset size)",
    dataset="porto",
    mode="size_sweep",
    algorithms=("fdbscan", "fdbscan-earlyexit", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=20,
    paper_sizes=(500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
    sizes=(4_000, 8_000, 16_000, 32_000),
    eps_quantile=0.6,
    description="Paper: early exit helps FDBSCAN by ~3x on Porto and beats RT-DBSCAN by ~1.5x "
                "at large sizes (small minPts lets traversal stop very early).",
))

_register(ExperimentSpec(
    id="fig9b",
    paper_ref="Figure 9b",
    title="Early-exit impact on 3DRoad (execution time vs dataset size)",
    dataset="3droad",
    mode="size_sweep",
    algorithms=("fdbscan", "fdbscan-earlyexit", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(50_000, 100_000, 200_000, 400_000),
    sizes=(4_000, 8_000, 16_000, 32_000),
    description="Paper: RT-DBSCAN outperforms FDBSCAN-EarlyExit on 3DRoad.",
))

_register(ExperimentSpec(
    id="fig9c",
    paper_ref="Figure 9c",
    title="Early-exit impact on NGSIM (execution time vs dataset size)",
    dataset="ngsim",
    mode="size_sweep",
    algorithms=("fdbscan", "fdbscan-earlyexit", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
    sizes=(8_000, 16_000, 32_000, 64_000),
    eps_absolute=(0.0005,),
    description="Paper: RT-DBSCAN vastly outperforms both FDBSCAN variants on NGSIM.",
))

_register(ExperimentSpec(
    id="sec5d",
    paper_ref="Section V-D",
    title="Runtime breakdown: BVH build vs clustering stages (3DIono)",
    dataset="3diono",
    mode="breakdown",
    algorithms=("fdbscan", "rt-dbscan"),
    baseline="fdbscan",
    min_pts=100,
    paper_sizes=(1_000_000,),
    sizes=(32_000,),
    eps_quantile=0.30,
    description="Paper: RT-DBSCAN spends ~48% of its time on clustering (build-dominated) while "
                "FDBSCAN spends ~94%; clustering phases are ~9x faster on the RT device.",
))

_register(ExperimentSpec(
    id="sec6c",
    paper_ref="Section VI-C",
    title="Triangle-tessellated spheres vs custom sphere Intersection program",
    dataset="porto",
    mode="triangle_mode",
    algorithms=("rt-dbscan", "rt-dbscan-triangles"),
    baseline="rt-dbscan",
    min_pts=50,
    paper_sizes=(1_000_000,),
    sizes=(4_000,),
    eps_quantile=0.30,
    description="Paper: approximating spheres with triangles is 2x-5x slower because every hit "
                "must be routed through the AnyHit program.",
))

_register(ExperimentSpec(
    id="scaling",
    paper_ref="Beyond the paper",
    title="Tiled scale-out: shard-local clustering + halo merge vs one monolithic pass",
    dataset="porto",
    mode="size_sweep",
    algorithms=("rt-dbscan", "rt-dbscan-tiled"),
    baseline="rt-dbscan",
    min_pts=50,
    paper_sizes=(2_000, 4_000, 8_000),
    sizes=(2_000, 4_000, 8_000),
    eps_quantile=0.30,
    description="The partition layer's eps-halo tiling (default 4 tiles) against the untiled "
                "pipeline.  Labels are bit-identical; the simulated *total* device time pays "
                "the per-shard pipeline setup, while the candidate work (distances, node "
                "visits) shrinks with tile locality and the per-shard critical path — the "
                "wall-clock of a real multi-GPU deployment — drops well below the monolithic "
                "run (reported in the tiled records' critical_path_seconds).",
))

_register(ExperimentSpec(
    id="backends",
    paper_ref="Beyond the paper",
    title="Backend ablation: Algorithm 3 on RT, grid, KD-tree and brute substrates",
    dataset="porto",
    mode="size_sweep",
    algorithms=("rt-dbscan@brute", "rt-dbscan@grid", "rt-dbscan@kdtree", "rt-dbscan"),
    baseline="rt-dbscan@brute",
    min_pts=50,
    paper_sizes=(2_000, 4_000),
    sizes=(2_000, 4_000),
    eps_quantile=0.30,
    description="The same RT-DBSCAN pipeline with the neighbour search swapped via the backend "
                "registry; labels are identical across substrates, only the simulated cost "
                "differs (speedups are over the index-free brute-force backend).",
))


# -------------------------------------------------------------------------- #
# Streaming experiments — beyond the paper: the same RT-DBSCAN machinery
# driven by a continuous feed, with the acceleration structure refit rather
# than rebuilt between window updates.
# -------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StreamingExperimentSpec:
    """One streaming workload: a stream shape plus window/chunk geometry."""

    id: str
    title: str
    stream: str  # name registered in repro.data.stream.STREAMS
    num_chunks: int
    chunk_size: int
    window: int | None
    min_pts: int
    #: absolute ε, or None to calibrate with the k-distance heuristic.
    eps_absolute: float | None = None
    eps_quantile: float = 0.30
    seed: int = 2023
    description: str = ""
    stream_kwargs: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass
class StreamingRunResult:
    """Per-update records plus engine totals for one streaming run."""

    spec_id: str
    mode: str
    eps: float
    min_pts: int
    updates: list  # list[StreamUpdate]
    summary: dict

    @property
    def maintenance_seconds(self) -> float:
        """Total simulated time spent keeping the accel structure fresh."""
        return sum(
            u.report.phase("scene_update").simulated_seconds for u in self.updates if u.report
        )

    @property
    def updates_per_simulated_second(self) -> float:
        total = self.summary["total_simulated_seconds"]
        return len(self.updates) / total if total else float("inf")

    @property
    def points_per_simulated_second(self) -> float:
        total = self.summary["total_simulated_seconds"]
        return self.summary["points_ingested"] / total if total else float("inf")

    def as_dict(self) -> dict:
        return {
            "spec_id": self.spec_id,
            "mode": self.mode,
            "eps": self.eps,
            "min_pts": self.min_pts,
            "updates": [u.as_dict() for u in self.updates],
            "summary": dict(self.summary),
            "maintenance_seconds": self.maintenance_seconds,
            "updates_per_simulated_second": self.updates_per_simulated_second,
            "points_per_simulated_second": self.points_per_simulated_second,
        }


STREAMING_EXPERIMENTS: dict[str, StreamingExperimentSpec] = {}


def _register_streaming(spec: StreamingExperimentSpec) -> StreamingExperimentSpec:
    STREAMING_EXPERIMENTS[spec.id] = spec
    return spec


_register_streaming(StreamingExperimentSpec(
    id="stream-drift",
    title="Sliding-window clustering of drifting Gaussian blobs",
    stream="drift-blobs",
    num_chunks=16,
    chunk_size=150,
    window=1800,
    min_pts=5,
    description="Small chunks into a large window: the refit-friendly regime where "
                "the auto policy should rebuild rarely and win on maintenance time.",
))

_register_streaming(StreamingExperimentSpec(
    id="stream-burst",
    title="Burst hotspots over uniform background (promotion/demotion stress)",
    stream="burst-hotspots",
    num_chunks=12,
    chunk_size=200,
    window=800,
    min_pts=8,
    description="Cluster count oscillates as bursts enter and leave the window; "
                "exercises the eviction-triggered re-clustering path.",
))

_register_streaming(StreamingExperimentSpec(
    id="stream-ngsim",
    title="NGSIM corridor replay at the paper's eps (dense, zero clusters)",
    stream="ngsim-replay",
    num_chunks=10,
    chunk_size=300,
    window=1500,
    min_pts=100,
    eps_absolute=0.0005,
    description="The Section V-C regime as a feed: neighbourhoods are empty, so "
                "updates are traversal-bound and throughput is maximal.",
))


def get_streaming_experiment(exp_id: str) -> StreamingExperimentSpec:
    """Look up a streaming experiment by id (case-insensitive)."""
    key = exp_id.lower()
    if key not in STREAMING_EXPERIMENTS:
        raise KeyError(
            f"unknown streaming experiment {exp_id!r}; available: "
            f"{sorted(STREAMING_EXPERIMENTS)}"
        )
    return STREAMING_EXPERIMENTS[key]


def list_streaming_experiments() -> list[str]:
    """Ids of all registered streaming experiments."""
    return sorted(STREAMING_EXPERIMENTS)


def run_streaming(
    stream: str,
    num_chunks: int,
    chunk_size: int,
    *,
    window: int | None = None,
    eps: float | None = None,
    min_pts: int = 5,
    eps_quantile: float = 0.30,
    seed: int = 2023,
    mode: str = "auto",
    stream_kwargs: dict | None = None,
    spec_id: str = "custom",
) -> StreamingRunResult:
    """Run the streaming engine over a named stream and collect records.

    ``eps=None`` calibrates ε with the k-distance heuristic over the whole
    materialised stream (the same procedure the batch experiments use), so
    streaming and batch runs on the same feed are directly comparable.
    ``mode`` selects the refit policy — ``"rebuild"`` is the per-chunk
    rebuild baseline the throughput benchmark compares against.

    Since the feed is materialised up front, the scene's slot buffer is
    sized for it with :func:`~repro.streaming.scene.feed_capacity` — in
    particular an unbounded-window run never grows its slot buffer, so it
    never pays a growth-forced rebuild.
    """
    from ..streaming import RefitPolicy, StreamingRTDBSCAN, feed_capacity

    if num_chunks < 1:
        raise ValueError("num_chunks must be a positive integer")
    if chunk_size < 1:
        raise ValueError("chunk_size must be a positive integer")
    chunks = list(make_stream(stream, num_chunks, chunk_size, seed=seed,
                              **(stream_kwargs or {})))
    if eps is None:
        eps = calibrate_eps(np.vstack(chunks), min_pts, eps_quantile)

    rows = sum(chunk.shape[0] for chunk in chunks)
    engine = StreamingRTDBSCAN(
        eps,
        min_pts,
        window=window,
        initial_capacity=feed_capacity(rows, window, chunk_size),
        policy=RefitPolicy(mode=mode),
    )
    updates = engine.consume(chunks)
    return StreamingRunResult(
        spec_id=spec_id,
        mode=mode,
        eps=float(eps),
        min_pts=int(min_pts),
        updates=updates,
        summary=engine.summary(),
    )


def run_streaming_experiment(
    exp_id: str, *, scale: float = 1.0, mode: str = "auto"
) -> StreamingRunResult:
    """Run one registered streaming experiment at the given scale."""
    spec = get_streaming_experiment(exp_id)
    chunk_size = max(50, int(round(spec.chunk_size * scale)))
    window = None if spec.window is None else max(2 * chunk_size, int(round(spec.window * scale)))
    return run_streaming(
        spec.stream,
        spec.num_chunks,
        chunk_size,
        window=window,
        eps=spec.eps_absolute,
        min_pts=spec.min_pts,
        eps_quantile=spec.eps_quantile,
        seed=spec.seed,
        mode=mode,
        stream_kwargs=dict(spec.stream_kwargs),
        spec_id=spec.id,
    )


def run_service_experiment(
    *,
    num_tenants: int = 8,
    num_chunks: int = 10,
    chunk_size: int = 120,
    window: int = 600,
    eps: float = 0.35,
    min_pts: int = 5,
    skew: float = 1.0,
    seed: int = 2023,
    max_batch_chunks: int = 8,
    max_queue_chunks: int = 32,
) -> dict:
    """Multi-tenant service throughput against a serial single-session baseline.

    Replays one deterministic skewed ensemble (:func:`multi_tenant_feeds`)
    two ways over identical engines:

    * **serial** — one :class:`StreamingRTDBSCAN` per tenant consuming its
      feed chunk by chunk, back to back (the no-service baseline);
    * **service** — the same chunks interleaved across tenants through
      :class:`~repro.service.service.ClusteringService`, so queued chunks
      coalesce into micro-batched updates.

    Besides wall/simulated time for both runs, the record carries the
    batching factor (chunks per ``update()`` call) and a per-tenant parity
    bit — service labels must stay bit-identical to the serial consume.
    """
    import asyncio
    import time as _time

    from ..api import ClustererSpec
    from ..data.stream import interleave_feeds, multi_tenant_feeds
    from ..service import ClusteringService, Request, ServiceConfig
    from ..streaming import StreamingRTDBSCAN

    feeds = multi_tenant_feeds(num_tenants, num_chunks, chunk_size,
                               seed=seed, skew=skew)
    total_chunks = sum(len(chunks) for chunks in feeds.values())
    total_points = sum(c.shape[0] for chunks in feeds.values() for c in chunks)

    t0 = _time.perf_counter()
    serial_results: dict = {}
    serial_sim = 0.0
    serial_updates = 0
    for tenant, chunks in feeds.items():
        with StreamingRTDBSCAN(eps=eps, min_pts=min_pts, window=window) as engine:
            engine.consume(chunks)
            serial_results[tenant] = engine.result()
            summary = engine.summary()
        serial_sim += summary["total_simulated_seconds"]
        serial_updates += summary["num_updates"]
    serial_wall = _time.perf_counter() - t0

    config = ServiceConfig(
        spec=ClustererSpec(algo="streaming-rt-dbscan", eps=eps, min_pts=min_pts,
                           params={"window": window}),
        max_batch_chunks=max_batch_chunks,
        max_queue_chunks=max_queue_chunks,
        session_ttl_s=None,
    )

    async def drive() -> tuple[dict, dict]:
        async with ClusteringService(config) as service:
            for tenant, chunk in interleave_feeds(feeds, seed=seed):
                while not (await service.submit(Request.ingest(tenant, chunk))).ok:
                    await asyncio.sleep(0)
            labels = {}
            for tenant in feeds:
                resp = await service.submit(Request.query_labels(tenant))
                labels[tenant] = resp.body
            stats = (await service.submit(Request.stats())).body
        return labels, stats

    t0 = _time.perf_counter()
    labels, stats = asyncio.run(drive())
    service_wall = _time.perf_counter() - t0

    labels_match = all(
        labels[t]["labels"] == serial_results[t].labels.tolist()
        and labels[t]["core_mask"] == serial_results[t].core_mask.tolist()
        for t in feeds
    )
    tenant_stats = stats["sessions"]["tenants"]
    service_sim = sum(
        s["engine"]["total_simulated_seconds"] for s in tenant_stats.values()
    )
    batches = stats["service"]["batches"]

    return {
        "num_tenants": num_tenants,
        "num_chunks_per_tenant": num_chunks,
        "chunk_size": chunk_size,
        "window": window,
        "skew": skew,
        "eps": float(eps),
        "min_pts": int(min_pts),
        "total_chunks": total_chunks,
        "total_points": total_points,
        "labels_match": bool(labels_match),
        "serial": {
            "wall_seconds": serial_wall,
            "simulated_seconds": serial_sim,
            "updates": serial_updates,
            "points_per_wall_second": total_points / max(serial_wall, 1e-9),
        },
        "service": {
            "wall_seconds": service_wall,
            "simulated_seconds": service_sim,
            "updates": batches,
            "chunks_ingested": stats["service"]["chunks_ingested"],
            "points_per_wall_second": total_points / max(service_wall, 1e-9),
        },
        "batching_factor": total_chunks / max(batches, 1),
        "wall_speedup_vs_serial": serial_wall / max(service_wall, 1e-9),
        "simulated_speedup_vs_serial": serial_sim / max(service_sim, 1e-9),
    }


def run_recovery_experiment(
    *,
    window_sizes: tuple[int, ...] = (200, 600, 1200),
    chunk_size: int = 100,
    eps: float = 0.35,
    min_pts: int = 5,
    seed: int = 2023,
    repeats: int = 3,
    backend: str = "grid",
) -> dict:
    """Durability cost curve: checkpoint write / restore latency vs window size.

    For each window size, fills a :class:`StreamingRTDBSCAN` to capacity from
    the deterministic drift-blobs stream, then measures three things over
    ``repeats`` rounds (medians reported):

    * ``snapshot_seconds`` — engine state → plain-JSON snapshot dict;
    * ``write_seconds`` — snapshot → CRC-framed checkpoint file through
      :class:`~repro.service.store.SnapshotStore` (atomic tmp+rename+fsync);
    * ``restore_seconds`` — file → verified record →
      :meth:`StreamingRTDBSCAN.restore` replaying the window.

    Each row also carries the checkpoint file size and a parity bit (restored
    labels must equal the donor's), so a perf snapshot that shows restore
    getting cheap never hides it getting *wrong*.
    """
    import tempfile
    import time as _time

    from ..service.store import SnapshotStore
    from ..streaming import StreamingRTDBSCAN

    rows = []
    with tempfile.TemporaryDirectory(prefix="rtdbscan-recovery-") as tmp:
        store = SnapshotStore(tmp)
        for window in window_sizes:
            num_chunks = -(-window // chunk_size) + 2  # fill past capacity
            stream = make_stream("drift-blobs", num_chunks=num_chunks,
                                 chunk_size=chunk_size, seed=seed)
            engine = StreamingRTDBSCAN(eps=eps, min_pts=min_pts, window=window,
                                       backend=backend)
            for chunk in stream:
                engine.update(chunk)
            donor_labels = engine.result().labels.tolist()

            snapshot_s, write_s, restore_s = [], [], []
            parity = True
            tenant = f"w{window}"
            for _ in range(repeats):
                t0 = _time.perf_counter()
                snapshot = engine.snapshot()
                snapshot_s.append(_time.perf_counter() - t0)

                t0 = _time.perf_counter()
                path = store.save(tenant, snapshot)
                write_s.append(_time.perf_counter() - t0)

                t0 = _time.perf_counter()
                record = store.load(tenant)
                resumed = StreamingRTDBSCAN.restore(record["snapshot"])
                restore_s.append(_time.perf_counter() - t0)
                parity = parity and resumed.result().labels.tolist() == donor_labels

            rows.append({
                "window": int(window),
                "window_points": int(engine.result().labels.shape[0]),
                "backend": backend,
                "checkpoint_bytes": int(path.stat().st_size),
                "snapshot_seconds": float(np.median(snapshot_s)),
                "write_seconds": float(np.median(write_s)),
                "restore_seconds": float(np.median(restore_s)),
                "labels_match": bool(parity),
            })
    return {
        "chunk_size": int(chunk_size),
        "eps": float(eps),
        "min_pts": int(min_pts),
        "repeats": int(repeats),
        "rows": rows,
    }


# -------------------------------------------------------------------------- #
def get_experiment(exp_id: str) -> ExperimentSpec:
    """Look up an experiment by id (case-insensitive)."""
    key = exp_id.lower()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key]


def list_experiments() -> list[str]:
    """Ids of all registered experiments."""
    return sorted(EXPERIMENTS)


def run_experiment(
    exp_id: str, *, scale: float = 1.0, algorithms: list[str] | None = None, **kwargs
) -> list[RunRecord]:
    """Run every configuration of one experiment and return the records."""
    spec = get_experiment(exp_id)
    configs = spec.build_configs(scale=scale)
    algos = list(algorithms) if algorithms is not None else list(spec.algorithms)
    return run_sweep(algos, configs, **kwargs)

