"""Simulated RT-capable GPU device.

``RTDevice`` stands in for the paper's NVIDIA RTX 2060: it owns a cost model
(how fast the RT cores and shader cores are) and a device-memory tracker
(6 GB).  All higher layers — the OptiX-style pipeline, the neighbour
backends and the DBSCAN algorithms — price their work with the same cost
model, which is what makes the simulated timings comparable across
algorithms.  The operations themselves are recorded in each run's phase
report (:class:`~repro.perf.timing.ExecutionReport`), the one op-count
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.cost_model import DEFAULT_COST_MODEL, DeviceCostModel
from ..perf.memory import MemoryTracker

__all__ = ["RTDevice"]


@dataclass
class RTDevice:
    """A simulated GPU with RT cores and shader cores.

    Parameters
    ----------
    cost_model:
        Per-operation simulated costs; defaults to the RTX 2060 calibration.
    has_rt_cores:
        When False, BVH build and traversal fall back to shader-core costs —
        this is what OptiX does on GPUs without RT hardware and is used by
        the ablation benchmarks.
    name:
        Label used in reports.
    """

    cost_model: DeviceCostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    has_rt_cores: bool = True
    name: str = "sim-rtx2060"
    memory: MemoryTracker = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.memory is None:
            self.memory = MemoryTracker(capacity_bytes=self.cost_model.device_memory_bytes)

    # ------------------------------------------------------------------ #
    def accel_build_seconds(self, num_prims: int) -> float:
        """Simulated time to build an acceleration structure over ``num_prims``.

        Uses the RT (OptiX) builder cost when RT cores are present, otherwise
        the software builder cost.
        """
        unit = "rt" if self.has_rt_cores else "sm"
        return self.cost_model.build_time_s(num_prims, unit=unit)

    def accel_refit_seconds(self, num_prims: int) -> float:
        """Simulated time to refit an existing acceleration structure.

        Refit recomputes node bounds in place (no topology change), which the
        cost model prices well below a fresh build; the streaming subsystem
        relies on this gap when choosing refit over rebuild.
        """
        unit = "rt" if self.has_rt_cores else "sm"
        return self.cost_model.refit_time_s(num_prims, unit=unit)
