"""Streaming RT-DBSCAN: incremental ingest + refit-aware re-clustering.

The paper's core argument — BVH-backed ε-queries are so cheap that redundant
traversal beats bookkeeping — extends naturally to *streaming* workloads
where points arrive continuously.  This subsystem maintains the ε-sphere
scene incrementally instead of rebuilding it per batch:

* :class:`StreamingScene` keeps the spheres in a slot buffer sized above the
  live window (:func:`feed_capacity` sizes it for a known feed; it doubles
  when it fills); appends fill free slots, evictions park slots out of the
  data extent, and the acceleration structure is *refit* (an OptiX accel
  update, priced by the device cost model) unless churn or capacity growth
  makes a full rebuild pay off;
* :class:`RefitPolicy` is that refit-vs-rebuild decision, driven by
  :class:`repro.perf.cost_model.DeviceCostModel`;
* :class:`StreamingRTDBSCAN` layers incremental DBSCAN label maintenance on
  top: per-point ε-neighbour counts are updated from the new points' rays
  alone, the union–find forest grows monotonically under insertion, and only
  cluster-structure-changing evictions trigger a (core-point-only)
  re-clustering pass.

For any chunked feed with no evictions the final window labelling is
identical to batch :func:`repro.dbscan.rt_dbscan` on the same points.
"""

from .engine import StreamingRTDBSCAN, StreamUpdate
from .policy import RefitPolicy
from .scene import StreamingScene, feed_capacity

__all__ = ["StreamingRTDBSCAN", "StreamUpdate", "RefitPolicy", "StreamingScene", "feed_capacity"]
