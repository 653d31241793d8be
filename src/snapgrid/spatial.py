"""Per-tile count aggregation and spatial concentration fitting.

Whether driving clips cluster in a few hotspots or spread evenly over a
city is decided by fitting four candidate distributions to the positive
per-tile counts by closed-form maximum likelihood and comparing them with
BIC (k ln n - 2 loglik, lower is better):

* exponential   rate = 1 / mean                       (1 parameter)
* normal        mean, population std                  (2 parameters)
* log-normal    normal fit of ln x                    (2 parameters)
* power law     continuous Hill estimator,
                alpha = 1 + n / sum ln(x / x_min)     (1 parameter, x_min fixed)

Counts are integers but the likelihoods are continuous; for the count
magnitudes seen per tile this is an adequate, fast approximation. The
power-law lower cutoff is the smallest positive count (no
cutoff search), which keeps all four fits comparable on identical data.
Zero-count tiles never enter any fit, since the log-normal and power-law
densities are undefined at zero.

Counts are kept per active tile, numbered as ``geo.locate_points`` numbers
tiles; the heatmap writes each one's centre from ``TileGrid.centers``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSampleError, SnapGridError
from .geo import TileGrid

FAMILIES = ("power_law", "normal", "log_normal", "exponential")

# Free parameters counted by BIC per family (power-law x_min is fixed, not free).
N_PARAMS = {"power_law": 1, "normal": 2, "log_normal": 2, "exponential": 1}


@dataclass(frozen=True, eq=False)
class TileCountVector:
    """Counts of located records per active tile of one city's grid."""

    tiles: np.ndarray  # the active tiles, numbered as geo.locate_points numbers them
    counts: np.ndarray  # int, aligned with tiles
    out_of_grid: int = 0

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.tiles),):
            raise SnapGridError(f"counts shape {counts.shape} does not match {len(self.tiles)} tiles")

    @property
    def positive_counts(self) -> np.ndarray:
        return self.counts[self.counts >= 1]


def tile_counts(tiles: np.ndarray, grid: TileGrid) -> TileCountVector:
    """Count one city's located records per active tile of its grid.

    ``tiles`` holds each record's tile as :func:`geo.locate_points` gives
    it; a record that locates nowhere (-1) goes to an out-of-grid tally.
    """
    located, active = tiles[tiles >= 0], np.flatnonzero(grid.active)
    counts = np.bincount(np.searchsorted(active, located), minlength=len(active))  # each tile's place among the active
    return TileCountVector(tiles=active, counts=counts, out_of_grid=len(tiles) - len(located))


@dataclass(frozen=True)
class FittedDistribution:
    params: dict[str, float]
    log_likelihood: float
    bic: float
    n: int


def log_likelihood(family: str, x: Sequence[float], params: dict[str, float]) -> float:
    """Log density sum for a family at arbitrary (not necessarily MLE) parameters."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if family == "exponential":
        lam = params["lam"]
        return n * math.log(lam) - lam * float(x.sum())
    if family == "normal":
        mu, sigma = params["mu"], params["sigma"]
        return -0.5 * n * math.log(2 * math.pi) - n * math.log(sigma) - float(np.square(x - mu).sum()) / (2 * sigma**2)
    if family == "log_normal":
        mu, sigma = params["mu_log"], params["sigma_log"]
        log_x = np.log(x)
        normal_part = -0.5 * n * math.log(2 * math.pi) - n * math.log(sigma) - float(np.square(log_x - mu).sum()) / (2 * sigma**2)
        return normal_part - float(log_x.sum())
    if family == "power_law":
        alpha, x_min = params["alpha"], params["x_min"]
        return n * math.log(alpha - 1) - n * math.log(x_min) - alpha * float(np.log(x / x_min).sum())
    raise ValueError(f"unknown family {family!r}")


def fit_mle(x: Sequence[float], family: str) -> FittedDistribution:
    """Closed-form maximum-likelihood fit of one family to positive data.

    The power law's ``x_min`` is min(x).
    Raises :class:`DegenerateSampleError` when the sample cannot identify
    the family's parameters (too small, nonpositive where positivity is
    required, or zero spread).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise DegenerateSampleError(f"need at least 2 observations, got {n}")
    if family in ("log_normal", "exponential", "power_law") and (x <= 0).any():
        raise DegenerateSampleError(f"{family} requires strictly positive data")

    if family == "exponential":
        lam = 1.0 / float(x.mean())
        params = {"lam": lam}
    elif family == "normal":
        mu = float(x.mean())
        sigma = float(x.std())  # population (1/n) std: the likelihood maximizer
        if sigma == 0:
            raise DegenerateSampleError("normal fit degenerate: zero variance")
        params = {"mu": mu, "sigma": sigma}
    elif family == "log_normal":
        log_x = np.log(x)
        mu = float(log_x.mean())
        sigma = float(log_x.std())
        if sigma == 0:
            raise DegenerateSampleError("log-normal fit degenerate: zero variance of ln x")
        params = {"mu_log": mu, "sigma_log": sigma}
    else:  # power_law
        x_min = float(x.min())
        log_ratio_sum = float(np.log(x / x_min).sum())
        if log_ratio_sum == 0:
            raise DegenerateSampleError("power-law fit degenerate: all values equal x_min")
        alpha = 1.0 + n / log_ratio_sum
        params = {"alpha": alpha, "x_min": x_min}

    loglik = log_likelihood(family, x, params)
    bic = N_PARAMS[family] * math.log(n) - 2.0 * loglik
    return FittedDistribution(params=params, log_likelihood=loglik, bic=bic, n=n)


@dataclass(frozen=True)
class FitComparison:
    city_id: str
    fits: dict[str, FittedDistribution]
    failures: dict[str, str]
    best_by_bic: str
    best_by_loglik: str


def compare_fits(x: Sequence[float], city_id: str = "") -> FitComparison:
    """Fit all four families and pick the BIC and log-likelihood winners.

    Per-family failures are recorded, not raised; at least two families
    must succeed for a comparison to make sense.
    """
    fits: dict[str, FittedDistribution] = {}
    failures: dict[str, str] = {}
    for family in FAMILIES:
        try:
            fits[family] = fit_mle(x, family)
        except DegenerateSampleError as exc:
            failures[family] = str(exc)
    if len(fits) < 2:
        where = f"city {city_id}: " if city_id else ""
        raise SnapGridError(
            f"{where}only {len(fits)} of {len(FAMILIES)} families fit successfully: {failures}"
        )
    best_by_bic = min(fits, key=lambda f: (fits[f].bic, FAMILIES.index(f)))
    best_by_loglik = max(fits, key=lambda f: (fits[f].log_likelihood, -FAMILIES.index(f)))
    return FitComparison(
        city_id=city_id,
        fits=fits,
        failures=failures,
        best_by_bic=best_by_bic,
        best_by_loglik=best_by_loglik,
    )


def concentration_summary(comparisons: Sequence[FitComparison]) -> dict[str, float]:
    """Percentage of cities each family wins by BIC; percentages sum to 100."""
    if not comparisons:
        raise ValueError("need at least one fit comparison")
    wins = {family: 0 for family in FAMILIES}
    for comp in comparisons:
        wins[comp.best_by_bic] += 1
    return {family: 100.0 * count / len(comparisons) for family, count in wins.items()}


def comparison_to_dict(comp: FitComparison) -> dict:
    """JSON-friendly view of one city's fits with winner flags."""
    return {
        "city_id": comp.city_id,
        "best_by_bic": comp.best_by_bic,
        "best_by_loglik": comp.best_by_loglik,
        "failures": dict(sorted(comp.failures.items())),
        "fits": {
            family: {
                "params": {k: fit.params[k] for k in sorted(fit.params)},
                "log_likelihood": fit.log_likelihood,
                "bic": fit.bic,
                "n": fit.n,
                "wins_bic": family == comp.best_by_bic,
                "wins_loglik": family == comp.best_by_loglik,
            }
            for family, fit in sorted(comp.fits.items())
        },
    }


def heatmap_export(
    grid: TileGrid,
    driving: TileCountVector,
    total: TileCountVector,
    path,
) -> None:
    """Write one CSV row per active tile: indices, center, driving and total counts."""
    tiles = np.flatnonzero(grid.active)
    if not (np.array_equal(driving.tiles, tiles) and np.array_equal(total.tiles, tiles)):
        raise SnapGridError("count vectors are not aligned with the grid's active tiles")
    lat, lon = grid.centers(tiles)
    row, col = np.divmod(tiles, grid.n_cols)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "center_lat", "center_lon", "driving_count", "total_count"])
        writer.writerows(zip(row.tolist(), col.tolist(), map(repr, lat.tolist()), map(repr, lon.tolist()),
                             driving.counts.tolist(), total.counts.tolist()))
