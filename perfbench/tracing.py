"""Span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's side only: :func:`install` replaces
each layer's public entry points with timing wrappers where they are looked
up, and the returned :class:`Patches` puts the originals back.  Nothing under
``src/`` is edited, so a traced run executes exactly the code an untraced run
does, plus the wrappers.

A span is ``(name, start, end, parent, op)``.  The layer is the part of the
name before the first dot (``neighbors.csr`` -> ``neighbors``).  Spans stay in
memory until the run ends; :func:`chrome_trace` turns them into Chrome
trace-event JSON (Perfetto and ``chrome://tracing`` open it) and
:func:`self_time_table` into a per-layer self-time table.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, function, span name) for every module function the traced run
#: wraps; a function is patched in each module that looks it up.
MODULE_FUNCTIONS = (
    ("repro.dbscan.rt_dbscan", "make_backend", "neighbors.build"),
    ("repro.partition.tiled", "make_backend", "neighbors.build"),
    ("repro.rtcore.pipeline", "build_lbvh", "bvh.build"),
    ("repro.dbscan.rt_dbscan", "form_clusters_csr", "dbscan.formation"),
    ("repro.partition.merge", "form_clusters_csr", "dbscan.formation"),
    ("repro.partition.tiled", "run_tile", "partition.tile"),
    ("repro.partition.tiled", "merge_tiles", "partition.merge"),
)
#: (module, class, method, span name); methods are patched on their class.
METHODS = (
    ("repro.neighbors.rt_find", "RTNeighborFinder", "neighbor_counts", "neighbors.counts"),
    ("repro.neighbors.rt_find", "RTNeighborFinder", "neighbor_csr", "neighbors.csr"),
    ("repro.dbscan.disjoint_set", "ParallelDisjointSet", "union_edges", "dbscan.union"),
    ("repro.partition.tiler", "Tiler", "split", "partition.split"),
    ("repro.streaming.scene", "StreamingScene", "commit", "rtcore.commit"),
    ("repro.streaming.scene", "StreamingScene", "query_csr", "rtcore.query"),
    ("repro.streaming.engine", "StreamingRTDBSCAN", "update", "streaming.update"),
)
NATIVE_KERNELS = ("grid_scan", "brute_block", "bvh_sphere", "confirm_pairs", "uf_union_edges")

#: Phases of ``StreamUpdate.report`` and the span attribute each lands in.
STREAM_PHASES = {
    "evict": "evict_s",
    "scene_update": "scene_s",
    "core_update": "core_s",
    "cluster_update": "cluster_s",
}


class Tracer:
    """In-memory span recorder.

    The parent of a span is the innermost open span of the same context; a
    span with no parent is an op, and every span carries the index of its
    op.  Threads of a ``ThreadPoolExecutor`` start with an empty context, so
    a span opened there takes :attr:`root` -- the op the benchmark opened
    before handing work to the pool -- as its parent explicitly.
    """

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent, op, thread id, attrs]
        self.spans: list[list] = []
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        self.root: int | None = None

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the block; yields the span's attribute dict."""
        parent = self._current.get()
        if parent is None and threading.current_thread() is not threading.main_thread():
            parent = self.root
        with self._lock:
            idx = len(self.spans)
            op = idx if parent is None else self.spans[parent][4]
            span = [name, time.perf_counter_ns(), None, parent, op,
                    threading.get_ident(), None]
            self.spans.append(span)
        token = self._current.set(idx)
        attrs: dict = {}
        try:
            yield attrs
        finally:
            self._current.reset(token)
            span[2] = time.perf_counter_ns()
            span[6] = attrs or None

    @contextmanager
    def op(self, name: str):
        """One top-level operation of the workload, e.g. one fit."""
        with self.span(name) as attrs:
            self.root = self._current.get()
            try:
                yield attrs
            finally:
                self.root = None


# --------------------------------------------------------------------------- #
# Wrapping the layers' entry points.
# --------------------------------------------------------------------------- #
def _wrap(tracer: Tracer, name: str, fn, annotate=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(attrs, args, result)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _annotate_launch(attrs, args, result):
    """The exact counts of the ``LaunchStats`` a launch returns last."""
    stats = result[-1]
    attrs["rays"] = int(stats.num_rays)
    attrs["node_visits"] = int(stats.traversal.node_visits)
    attrs["candidates"] = int(stats.traversal.candidates)
    attrs["confirmed"] = int(stats.traversal.confirmed)


def _annotate_union(attrs, args, result):
    attrs["edges"] = int(len(args[1]))
    attrs["hooks"] = int(result)


def _annotate_commit(attrs, args, result):
    attrs["action"] = result[0]


def _annotate_native(attrs, args, result):
    attrs["fallback"] = result is None or result is False


def _annotate_tile(attrs, args, result):
    attrs["tile"] = int(result.tile_id)


class Patches:
    """The originals replaced by :func:`install`; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, holder, attr: str, new) -> None:
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def restore(self) -> None:
        while self._saved:
            holder, attr, orig = self._saved.pop()
            setattr(holder, attr, orig)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point the traced run measures.

    Module functions are patched in the module that looks them up.  The
    package re-exports the ``rt_dbscan`` function under the name of its
    module, so modules are reached through ``sys.modules``, never as
    attributes of their package.
    """
    import repro.dbscan.rt_dbscan  # noqa: F401  (populate sys.modules)
    import repro.native.dispatch
    import repro.partition.tiled  # noqa: F401
    import repro.streaming.engine  # noqa: F401

    patches = Patches()
    annotate = {
        "neighbors.counts": _annotate_launch,
        "neighbors.csr": _annotate_launch,
        "rtcore.query": _annotate_launch,
        "dbscan.union": _annotate_union,
        "rtcore.commit": _annotate_commit,
        "partition.tile": _annotate_tile,
    }
    for module_name, attr, name in MODULE_FUNCTIONS:
        module = sys.modules[module_name]
        patches.replace(module, attr, _wrap(tracer, name, getattr(module, attr),
                                            annotate.get(name)))
    for module_name, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        if name == "streaming.update":
            new = _wrap_stream_update(tracer, cls.__dict__[attr])
        else:
            new = _wrap(tracer, name, cls.__dict__[attr], annotate.get(name))
        patches.replace(cls, attr, new)
    kernels = repro.native.dispatch.NativeKernels
    for attr in NATIVE_KERNELS:
        patches.replace(kernels, attr, _wrap(tracer, f"native.{attr}",
                                             kernels.__dict__[attr], _annotate_native))
    return patches


def _wrap_stream_update(tracer: Tracer, fn):
    """``StreamingRTDBSCAN.update`` with its report's phases as attributes."""

    def update(engine, points):
        with tracer.span("streaming.update") as attrs:
            attrs["engine"] = id(engine)
            attrs["p0"] = int(engine.points_ingested)
            result = fn(engine, points)
            attrs["k"] = int(result.num_new)
            attrs["reclustered"] = bool(result.reclustered)
            walls = {p.name: p.wall_seconds for p in result.report.phases}
            for phase, key in STREAM_PHASES.items():
                attrs[key] = float(walls.get(phase, 0.0))
            return result

    update.__wrapped__ = fn
    return update


# --------------------------------------------------------------------------- #
# Analysis: self time, per-op layer totals, exports.
# --------------------------------------------------------------------------- #
def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] is not None:
            kids[span[3]].append(idx)
    return kids


def _subtree(root: int, kids: dict[int, list[int]]) -> list[int]:
    out, stack = [], [root]
    while stack:
        idx = stack.pop()
        out.append(idx)
        stack.extend(kids.get(idx, ()))
    return out


def exclusive_times(spans: list[list]) -> dict[int, float]:
    """Self time of every closed span, in seconds.

    A span's self time is its duration minus the part of it that its
    children cover.  Where several children run at once (tiles on a thread
    pool), each instant is split evenly among the innermost spans running
    then, so the self times of an op's spans add up to the op's wall time.
    """
    kids = _children(spans)
    out: dict[int, float] = {}
    for root, span in enumerate(spans):
        if span[3] is not None or span[2] is None:
            continue
        members = [i for i in _subtree(root, kids) if spans[i][2] is not None]
        edges = sorted({t for i in members for t in (spans[i][1], spans[i][2])})
        share = dict.fromkeys(members, 0.0)
        for lo, hi in zip(edges, edges[1:]):
            active = {i for i in members if spans[i][1] <= lo and spans[i][2] >= hi}
            inner = [i for i in active if not any(k in active for k in kids.get(i, ()))]
            for i in inner:
                share[i] += (hi - lo) / len(inner) / 1e9
        out.update(share)
    return out


#: Layers whose share of the ops' wall time every traced run reports;
#: ``op`` is the residual, the ops' own time outside every wrapped call.
SHARE_LAYERS = ("neighbors", "bvh", "rtcore", "native", "dbscan", "partition",
                "streaming", "op")


def _dur(span: list) -> float:
    return (span[2] - span[1]) / 1e9


def layer_metrics(spans: list[list]) -> dict[str, float | None]:
    """Per-layer metrics of one traced run.

    An op is a span with no parent: one fit, or one stream update.  Times
    and counts are means per op; ``None`` marks a layer the workload never
    entered, and ratios over no work are 0.
    """
    closed = [s for s in spans if s[2] is not None]
    roots = [i for i, s in enumerate(spans) if s[3] is None and s[2] is not None]
    n = len(roots) or 1
    by_name: dict[str, list[list]] = defaultdict(list)
    for span in closed:
        by_name[span[0]].append(span)

    def per_op(name: str) -> float | None:
        if name not in by_name:
            return None
        return sum(_dur(s) for s in by_name[name]) / n

    def total(names, key: str) -> float:
        return float(sum((s[6] or {}).get(key, 0) for name in names for s in by_name[name]))

    out: dict[str, float | None] = {}
    for name in ("neighbors.build", "bvh.build", "neighbors.counts", "neighbors.csr",
                 "native.bvh_sphere", "native.uf_union_edges", "dbscan.formation",
                 "dbscan.union", "partition.split", "partition.merge",
                 "rtcore.commit", "rtcore.query"):
        out[f"{name}_s"] = per_op(name)

    launches = ("neighbors.counts", "neighbors.csr", "rtcore.query")
    for key in ("node_visits", "candidates", "confirmed"):
        out[f"rtcore.{key}"] = total(launches, key) / n
    candidates = total(launches, "candidates")
    out["rtcore.confirm_ratio"] = total(launches, "confirmed") / candidates if candidates else 0.0

    natives = [f"native.{k}" for k in NATIVE_KERNELS]
    out["native.calls"] = sum(len(by_name[k]) for k in natives) / n
    out["native.fallbacks"] = total(natives, "fallback") / n

    edges, hooks = total(["dbscan.union"], "edges"), total(["dbscan.union"], "hooks")
    out["dbscan.union_edges"] = edges / n
    out["dbscan.unions"] = hooks / n
    out["dbscan.union_ratio"] = hooks / edges if edges else 0.0
    fits = [i for i in roots if spans[i][0] == "op.fit"]
    if fits:
        selfs = exclusive_times(spans)
        out["dbscan.glue_s"] = sum(selfs[i] for i in fits) / len(fits)
    else:
        out["dbscan.glue_s"] = None

    tiles = by_name["partition.tile"]
    out["partition.tile_s"] = sum(map(_dur, tiles)) / len(tiles) if tiles else None
    per_fit: dict[int, list[float]] = defaultdict(list)
    for span in tiles:
        per_fit[span[4]].append(_dur(span))
    out["partition.tile_imbalance"] = (
        sum(max(d) / (sum(d) / len(d)) for d in per_fit.values()) / len(per_fit)
        if per_fit else 0.0
    )

    # An update that raised carries no report; it has no phases to split.
    updates = [s for s in by_name["streaming.update"] if "k" in s[6]]
    if updates:
        attrs = [s[6] for s in updates]
        for key in STREAM_PHASES.values():
            out[f"streaming.{key}"] = sum(a[key] for a in attrs) / len(updates)
        out["streaming.label_s"] = sum(
            _dur(s) - sum(s[6][k] for k in STREAM_PHASES.values()) for s in updates
        ) / len(updates)
        out["streaming.recluster_frac"] = sum(a["reclustered"] for a in attrs) / len(updates)
        points = sum(a["k"] for a in attrs)
        out["streaming.rays_per_point"] = total(["rtcore.query"], "rays") / points if points else 0.0
    else:
        for key in (*STREAM_PHASES.values(), "label_s"):
            out[f"streaming.{key}"] = None
        out["streaming.recluster_frac"] = 0.0
        out["streaming.rays_per_point"] = 0.0
    commits = by_name["rtcore.commit"]
    refits = sum(1 for s in commits if (s[6] or {}).get("action") == "refit")
    out["rtcore.refit_frac"] = refits / len(commits) if commits else 0.0

    rows, wall = self_time_table(spans)
    for layer in SHARE_LAYERS:
        own = sum(r["self_s"] for r in rows if r["layer"] == layer)
        out[f"{layer}.self_share"] = own / wall if wall else 0.0
    return out


def self_time_table(spans: list[list]) -> tuple[list[dict], float]:
    """Rows ``{name, layer, calls, total_s, self_s}`` plus the ops' wall time."""
    selfs = exclusive_times(spans)
    rows: dict[str, dict] = {}
    wall = 0.0
    for idx, span in enumerate(spans):
        if span[2] is None:
            continue
        dur = (span[2] - span[1]) / 1e9
        if span[3] is None:
            wall += dur
        row = rows.setdefault(span[0], {"name": span[0], "layer": layer_of(span[0]),
                                        "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += selfs.get(idx, 0.0)
    return sorted(rows.values(), key=lambda r: -r["self_s"]), wall


def format_self_time(rows: list[dict], wall: float) -> str:
    lines = [f"{'span':<26}{'layer':<12}{'calls':>8}{'total_s':>12}{'self_s':>12}{'share':>8}"]
    for r in rows:
        share = r["self_s"] / wall if wall else 0.0
        lines.append(f"{r['name']:<26}{r['layer']:<12}{r['calls']:>8}"
                     f"{r['total_s']:>12.4f}{r['self_s']:>12.4f}{share:>8.1%}")
    total = sum(r["self_s"] for r in rows)
    lines.append(f"{'sum of self times':<46}{'':>12}{total:>12.4f}")
    lines.append(f"{'wall time of all ops':<46}{'':>12}{wall:>12.4f}")
    return "\n".join(lines)


def chrome_trace(spans: list[list], *, metadata: dict | None = None) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms", "metadata": metadata or {}}
    t0 = min(s[1] for s in spans)
    tids: dict[int, int] = {}
    events = []
    for idx, (name, start, end, parent, op, tid, attrs) in enumerate(spans):
        if end is None:
            continue
        args = {"span": idx, "parent": parent, "op": op}
        args.update(attrs or {})
        events.append({
            "name": name, "cat": layer_of(name), "ph": "X", "pid": 1,
            "tid": tids.setdefault(tid, len(tids)),
            "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata or {}}
