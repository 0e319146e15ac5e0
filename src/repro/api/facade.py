"""One-call clustering facade.

``repro.cluster(points, algo=..., backend=..., **params)`` is the package's
front door: it resolves the algorithm from the registry, optionally
auto-calibrates ε with the same k-distance heuristic the benchmark harness
uses, builds the clusterer and fits it — returning the full
:class:`~repro.dbscan.params.DBSCANResult` (labels, core mask, timing
report), identical to what the legacy constructors produce.
"""

from __future__ import annotations

import numpy as np

from .registry import make_clusterer
from .spec import ClustererSpec

__all__ = ["cluster"]


#: datasets larger than this are subsampled for the k-distance calibration.
CALIBRATION_SAMPLE = 50_000


def cluster(
    points: np.ndarray,
    algo: str = "rt-dbscan",
    *,
    eps: float | None = None,
    min_pts: int = 5,
    backend: str | None = None,
    tiles: int | None = None,
    workers: int | None = None,
    device=None,
    eps_quantile: float = 0.30,
    seed: int = 0,
    calibration_sample: int | None = CALIBRATION_SAMPLE,
    **params,
):
    """Cluster ``points`` with any registered algorithm.

    Parameters
    ----------
    points:
        ``(n, 2)`` or ``(n, 3)`` data points.
    algo:
        Registered algorithm name (see :func:`repro.list_algorithms`), with
        the ``"algo@backend"`` spelling also accepted.
    eps:
        DBSCAN ε.  When omitted it is calibrated from the data with the
        k-distance heuristic at ``eps_quantile`` — the procedure the paper's
        experiments use.  The calibrated value is exposed in the result's
        ``extra["calibrated_eps"]`` (and in the report metadata).
    min_pts:
        DBSCAN minPts.
    backend:
        Neighbour backend for backend-pluggable algorithms
        (see :func:`repro.list_backends`).
    tiles, workers:
        Partition-layer knobs for tile-capable algorithms
        (``"rt-dbscan-tiled"``): spatial tile count and executor parallelism.
    device:
        Simulated RT device to charge the run to (fresh default if omitted).
    seed:
        Seed for the calibration subsample, so the auto-calibrated ε is
        reproducible on datasets larger than ``calibration_sample``.
    calibration_sample:
        Cap on the number of points the k-distance heuristic evaluates
        (``None`` evaluates every point).
    **params:
        Extra keyword arguments forwarded to the algorithm's constructor.

    Returns
    -------
    DBSCANResult
        Labels identical to running the algorithm's legacy constructor with
        the same parameters.

    Examples
    --------
    >>> import repro
    >>> from repro.data import make_blobs
    >>> points, _ = make_blobs(2000, centers=4, std=0.2, seed=7)
    >>> repro.cluster(points, eps=0.3, min_pts=10).num_clusters
    4
    >>> repro.cluster(points, "rt-dbscan", eps=0.3, min_pts=10,
    ...               backend="kdtree").num_clusters
    4
    """
    pts = np.asarray(points, dtype=np.float64)
    calibration: dict | None = None
    if eps is None:
        from ..bench.experiments import calibrate_eps

        eps = calibrate_eps(
            pts, int(min_pts), eps_quantile, sample=calibration_sample, seed=seed
        )
        calibration = {
            "calibrated_eps": float(eps),
            "eps_quantile": float(eps_quantile),
            "calibration_seed": int(seed),
            "calibration_sample": calibration_sample,
        }
    spec = ClustererSpec(
        algo=algo, eps=float(eps), min_pts=min_pts, backend=backend,
        tiles=tiles, workers=workers, params=params,
    )
    result = make_clusterer(spec, device=device).fit(pts)
    if calibration is not None:
        result.extra.update(calibration)
        if result.report is not None:
            result.report.metadata.update(calibration)
    return result
