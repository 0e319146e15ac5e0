"""Analytic device cost model.

The reproduction cannot run on real RT cores, so execution time is *modelled*:
every algorithm is instrumented to count the primitive operations it performs
(BVH node visits, intersection-program calls, distance computations,
union-find operations, bytes moved), and this module converts those counts
into simulated device time for the two execution units the paper contrasts:

* ``RT``  — the ray-tracing cores: hardware BVH build and traversal.
* ``SM``  — the streaming multiprocessors (shader cores): everything the
  CUDA baselines do, plus the user programs OptiX runs on behalf of the RT
  pipeline (Intersection / AnyHit programs).

Calibration
-----------
The per-operation costs are calibrated to the breakdown the paper reports in
Section V-D for 1 M 3DIono points (ε = 0.25, minPts = 100):

* the RT-accelerated clustering phases are ≈9× faster than FDBSCAN's
  shader-core clustering phases → the RT per-node traversal cost is set to
  ~1/9 of the SM per-node cost;
* the OptiX sphere-BVH build is ≈2.5× slower than FDBSCAN's plain BVH build
  → the RT per-primitive build cost is 2.5× the SM build cost;
* calling the AnyHit program per hit costs an extra fixed overhead, which is
  what makes the triangle-tessellation mode of Section VI-C 2×–5× slower.

Absolute numbers are therefore in "simulated milliseconds" that should not be
compared to the paper's wall-clock seconds; only ratios and trends are
meaningful, and ``docs/paper_mapping.md`` lists the ones each benchmark checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DeviceCostModel", "OpCounts", "DEFAULT_COST_MODEL"]


@dataclass
class OpCounts:
    """Operation counts accumulated by an algorithm phase."""

    bvh_build_prims: int = 0
    bvh_refit_prims: int = 0
    rt_node_visits: int = 0
    sm_node_visits: int = 0
    intersection_calls: int = 0
    anyhit_calls: int = 0
    distance_computations: int = 0
    union_ops: int = 0
    atomic_ops: int = 0
    bytes_moved: int = 0
    kernel_launches: int = 0

    def merge(self, other: "OpCounts") -> "OpCounts":
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @classmethod
    def sum(cls, counts) -> "OpCounts":
        """Aggregate an iterable of OpCounts into a fresh instance.

        Used wherever per-shard records are stitched into one report — the
        tiled partition layer sums its per-tile stage counts with this so
        the simulated device totals stay comparable to a monolithic run.
        """
        total = cls()
        for c in counts:
            total.merge(c)
        return total

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class DeviceCostModel:
    """Per-operation costs (in nanoseconds of simulated device time).

    The costs are *throughput-amortised*: they already fold in the massive
    parallelism of the device, so simulated time is simply
    ``count × cost_ns × 1e-9`` summed over operation kinds.
    """

    # --- acceleration-structure build -------------------------------- #
    #: per-primitive cost of the OptiX sphere-BVH build on the RT device
    #: (includes memory compaction and bounds-program invocation).
    rt_build_per_prim_ns: float = 18.0
    #: per-primitive cost of a plain spatial BVH build on the shader cores
    #: (what FDBSCAN / ArborX does).
    sm_build_per_prim_ns: float = 7.5
    #: fixed cost of setting up the OptiX/OWL pipeline (context, programs,
    #: SBT).  This is the overhead that makes RT-DBSCAN lose to FDBSCAN on
    #: very small datasets (Section V-B1).
    rt_setup_ns: float = 250_000.0
    #: per-primitive cost of *refitting* an existing acceleration structure:
    #: recompute node bounds bottom-up without changing the topology.  OptiX
    #: exposes this as an accel update and it is roughly 4x cheaper than a
    #: fresh build (no Morton sort, no node emission); the streaming
    #: subsystem uses it for small window updates.
    rt_refit_per_prim_ns: float = 4.5
    #: per-primitive refit cost of a plain spatial BVH on the shader cores.
    sm_refit_per_prim_ns: float = 2.5

    # --- traversal ----------------------------------------------------- #
    #: per-node cost of hardware BVH traversal on RT cores.
    rt_node_visit_ns: float = 0.02
    #: per-node cost of software BVH traversal on shader cores.
    sm_node_visit_ns: float = 0.20
    # The 10x ratio reproduces the paper's ~9x clustering-phase speedup in
    # the traversal-bound regime (Section V-D).

    # --- user programs / arithmetic ------------------------------------ #
    #: cost of one Intersection-program invocation (distance check) when
    #: dispatched from the RT pipeline.  The ~2.5x gap to ``distance_ns``
    #: reproduces the speedups of the candidate-bound (dense, large-eps)
    #: regime such as Porto (Table I).
    intersection_call_ns: float = 0.028
    #: extra cost of routing a hit through the AnyHit program (Section VI-C).
    anyhit_call_ns: float = 0.25
    #: cost of one Euclidean distance computation on the shader cores.
    distance_ns: float = 0.07
    #: cost of a union-find find+union on the device.
    union_op_ns: float = 0.02
    #: cost of an atomic union (critical section in Algorithm 3 line 14).
    atomic_op_ns: float = 0.06

    # --- memory / launch ------------------------------------------------ #
    #: effective device bandwidth in bytes per nanosecond (≈ 336 GB/s).
    bytes_per_ns: float = 336.0
    #: fixed overhead of one kernel / pipeline launch, in nanoseconds.
    kernel_launch_ns: float = 20_000.0
    #: device memory capacity in bytes (6 GB on the paper's RTX 2060).
    device_memory_bytes: int = 6 * 1024**3

    #: optional label for reports.
    name: str = "rtx2060-analytic"
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def build_time_s(self, num_prims: int, *, unit: str = "rt") -> float:
        """Simulated seconds to build a BVH over ``num_prims`` primitives.

        The RT (OptiX) build additionally pays the fixed pipeline-setup cost,
        which is what prevents RT-DBSCAN's build from being amortised on very
        small inputs.
        """
        if unit == "rt":
            per, fixed = self.rt_build_per_prim_ns, self.rt_setup_ns
        else:
            per, fixed = self.sm_build_per_prim_ns, 0.0
        return (num_prims * per + fixed + self.kernel_launch_ns) * 1e-9

    def refit_time_s(self, num_prims: int, *, unit: str = "rt") -> float:
        """Simulated seconds to refit an existing BVH over ``num_prims``.

        Refit reuses the live pipeline, so it pays the per-primitive bounds
        update and one kernel launch but never the fixed pipeline setup cost.
        """
        per = self.rt_refit_per_prim_ns if unit == "rt" else self.sm_refit_per_prim_ns
        return (num_prims * per + self.kernel_launch_ns) * 1e-9

    def time_s(self, counts: OpCounts) -> float:
        """Simulated seconds for a bag of operation counts."""
        ns = 0.0
        ns += counts.bvh_build_prims * 0.0  # build is accounted via build_time_s
        ns += counts.bvh_refit_prims * 0.0  # refit is accounted via refit_time_s
        ns += counts.rt_node_visits * self.rt_node_visit_ns
        ns += counts.sm_node_visits * self.sm_node_visit_ns
        ns += counts.intersection_calls * self.intersection_call_ns
        ns += counts.anyhit_calls * self.anyhit_call_ns
        ns += counts.distance_computations * self.distance_ns
        ns += counts.union_ops * self.union_op_ns
        ns += counts.atomic_ops * self.atomic_op_ns
        ns += counts.bytes_moved / self.bytes_per_ns
        ns += counts.kernel_launches * self.kernel_launch_ns
        return ns * 1e-9

    def with_overrides(self, **kwargs) -> "DeviceCostModel":
        """Return a copy of the model with selected costs replaced."""
        params = {name: getattr(self, name) for name in self.__dataclass_fields__}
        params.update(kwargs)
        return DeviceCostModel(**params)


#: The default model used across benchmarks — the paper's RTX 2060 testbed.
DEFAULT_COST_MODEL = DeviceCostModel()
