"""Report formatting.

Turns lists of :class:`~repro.bench.runner.RunRecord` into the rows the paper
prints: raw execution-time tables (Tables I–III), speedup series (Figs. 4–8)
and phase breakdowns (Section V-D).  Output is plain text so the benchmark
harness and ``rt-dbscan experiment`` can simply ``print`` it.
"""

from __future__ import annotations

from .runner import RunRecord, speedup_series

__all__ = [
    "format_time_table",
    "format_speedup_table",
    "format_breakdown",
    "format_records",
    "format_agreement_table",
]


def _fmt_seconds(value: float) -> str:
    if value != value:  # NaN
        return "n/a"
    if value == float("inf"):
        return "inf"
    if value >= 1.0:
        return f"{value:.2f}"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def format_records(records: list[RunRecord]) -> str:
    """Flat listing of all runs (one line each)."""
    lines = [
        f"{'dataset':<12} {'algorithm':<20} {'n':>9} {'eps':>10} {'minPts':>7} "
        f"{'status':>6} {'sim time':>10} {'clusters':>9} {'noise':>9}"
    ]
    for r in records:
        lines.append(
            f"{r.dataset:<12} {r.algorithm:<20} {r.num_points:>9} {r.eps:>10.5g} "
            f"{r.min_pts:>7} {r.status:>6} {_fmt_seconds(r.simulated_seconds):>10} "
            f"{r.num_clusters:>9} {r.num_noise:>9}"
        )
    return "\n".join(lines)


def format_time_table(
    records: list[RunRecord], *, algorithms: list[str], vary: str = "num_points",
    title: str = "",
) -> str:
    """Paper-style raw execution-time table (one row per configuration).

    ``vary`` selects the row key (``"num_points"`` for Tables I/III,
    ``"eps"`` for Table II); columns are the requested algorithms.
    """
    keys = sorted({getattr(r, vary) for r in records})
    header = f"{vary:>12} | " + " | ".join(f"{a:>18}" for a in algorithms)
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for k in keys:
        row = [f"{k:>12.6g}" if isinstance(k, float) else f"{k:>12}"]
        for algo in algorithms:
            match = [r for r in records if getattr(r, vary) == k and r.algorithm == algo]
            if not match:
                row.append(f"{'--':>18}")
            elif match[0].status == "oom":
                row.append(f"{'OOM':>18}")
            else:
                row.append(f"{_fmt_seconds(match[0].simulated_seconds):>18}")
        lines.append(" | ".join(row))
    return "\n".join(lines)


def format_speedup_table(
    records: list[RunRecord], *, baseline: str, targets: list[str], vary: str = "eps",
    title: str = "",
) -> str:
    """Paper-style speedup table: speedup of each target over the baseline."""
    header = f"{vary:>12} | " + " | ".join(f"{t:>20}" for t in targets)
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    series = {t: speedup_series(records, baseline=baseline, target=t, key=vary) for t in targets}
    keys = sorted({getattr(r, vary) for r in records if r.algorithm == baseline})
    for k in keys:
        row = [f"{k:>12.6g}" if isinstance(k, float) else f"{k:>12}"]
        for t in targets:
            match = [s for s in series[t] if s[vary] == k]
            if not match:
                row.append(f"{'--':>20}")
            else:
                sp = match[0]["speedup"]
                if sp != sp:
                    row.append(f"{'n/a':>20}")
                elif sp == float("inf"):
                    row.append(f"{'inf (baseline OOM)':>20}")
                elif sp == 0.0 and match[0]["target_status"] == "oom":
                    row.append(f"{'OOM':>20}")
                else:
                    row.append(f"{sp:>19.2f}x")
        lines.append(" | ".join(row))
    return "\n".join(lines)


def format_agreement_table(records: list[RunRecord], *, title: str = "") -> str:
    """Speedup-vs-agreement table of an approximate-tier sweep.

    One row per record carrying an ``extra["agreement"]`` quality block (the
    output of :func:`repro.bench.experiments.run_approx_experiment` or any
    :func:`~repro.bench.runner.run_single` call with ``reference=``): the
    knob setting, the simulated speedup over the reference, the ARI and the
    core/noise agreement rates — every approximate number next to its error
    bar.
    """
    header = (
        f"{'algorithm':<20} {'knobs':<24} {'speedup':>8} {'ARI':>7} "
        f"{'core agr':>9} {'noise agr':>10} {'equivalent':>11}"
    )
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for r in records:
        agreement = r.extra.get("agreement")
        if agreement is None:
            continue
        knobs = ", ".join(
            f"{k}={v:g}" if isinstance(v, (int, float)) else f"{k}={v}"
            for k, v in (r.extra.get("backend_kwargs") or {}).items()
        )
        speedup = agreement.get("simulated_speedup")
        lines.append(
            f"{r.algorithm:<20} {knobs or '--':<24} "
            f"{(f'{speedup:.2f}x' if speedup is not None else '--'):>8} "
            f"{agreement['ari']:>7.4f} {agreement['core_agreement']:>9.4f} "
            f"{agreement['noise_agreement']:>10.4f} "
            f"{('yes' if agreement['equivalent'] else 'no'):>11}"
        )
    return "\n".join(lines)


def format_breakdown(record: RunRecord, *, title: str = "") -> str:
    """Section V-D style phase breakdown of one run."""
    total = record.simulated_seconds
    lines = [title] if title else []
    lines.append(f"{record.algorithm} on {record.dataset} (n={record.num_points}, "
                 f"eps={record.eps:g}, minPts={record.min_pts})")
    for name, seconds in record.breakdown.items():
        frac = seconds / total if total else 0.0
        lines.append(f"  {name:<22} {_fmt_seconds(seconds):>10}  ({frac * 100:5.1f}%)")
    lines.append(f"  {'total':<22} {_fmt_seconds(total):>10}")
    return "\n".join(lines)
