"""Local-time rhythms: hourly profiles, night uplift, and weekly clustering.

All bucketing happens in each city's own IANA timezone, so "18:00" means
evening in that city regardless of where it sits on the globe. Local time
is taken in one place, ``_hours_of_week``; the hourly profile and the week
vectors both count its hours of the week. Weekly activity vectors (168
hour-of-week fractions, Monday 00:00 first) feed a small from-scratch
k-means so cities with similar rhythms group together; silhouette scores
and an elbow curve guide the choice of k, and a 2-D PCA projection
provides eyes on the result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SnapGridError
from .records import to_local_time

HOURS_PER_WEEK = 168


def _hours_of_week(ts: np.ndarray, tz_id: str) -> np.ndarray:
    """Each of UTC epoch seconds ``ts`` as its local hour of the week in ``tz_id``; 0 is Monday 00:00."""
    hours = [local.weekday() * 24 + local.hour for local in (to_local_time(t, tz_id) for t in ts.tolist())]
    return np.array(hours, dtype=np.int64)


def hourly_profile(ts: np.ndarray, tz_id: str) -> np.ndarray:
    """Counts of UTC epoch seconds ``ts`` per local wall-clock hour of the day (24 bins)."""
    return np.bincount(_hours_of_week(ts, tz_id) % 24, minlength=24)


@dataclass(frozen=True)
class NightWindow:
    """Local-time window for "night", wrapping midnight by default (18:00-01:59)."""

    start_hour: int = 18
    end_hour: int = 2  # exclusive

    def __post_init__(self):
        for name in ("start_hour", "end_hour"):
            h = getattr(self, name)
            if type(h) is not int or not 0 <= h <= 23:  # 18.5 would drop hour 18; a bool is not an hour
                raise ValueError(f"{name} must be an int in 0..23, got {h!r}")
        if self.start_hour == self.end_hour:
            raise ValueError(f"start_hour == end_hour == {self.start_hour} would cover the whole day")

    def contains(self, hour: int) -> bool:
        if self.start_hour < self.end_hour:
            return self.start_hour <= hour < self.end_hour
        return hour >= self.start_hour or hour < self.end_hour


def night_uplift(counts: np.ndarray, window: NightWindow, city_id: str) -> float:
    """Percent excess of mean in-window over mean out-of-window hourly ``counts`` of city ``city_id``.

    100.0 means night hours average twice the day hours. Undefined (raises)
    when the out-of-window mean is zero.
    """
    inside = np.array([window.contains(h) for h in range(24)])
    mean_in = float(counts[inside].mean())
    mean_out = float(counts[~inside].mean())
    if mean_out == 0:
        raise SnapGridError(f"city {city_id}: no activity outside the window; uplift undefined")
    return (mean_in / mean_out - 1.0) * 100.0


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise SnapGridError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise SnapGridError("need at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0:
        raise SnapGridError("zero variance on at least one side")
    return float((xc * yc).sum() / denom)


def week_vectors(ts_by_city: Mapping[str, np.ndarray], tz_by_city: Mapping[str, str]) -> tuple[np.ndarray, list[str]]:
    """Each city's 168 hour-of-week activity fractions, one row per city; index 0 is Monday 00:00 local.

    Cities with no activity are dropped with a warning.
    """
    rows, kept = [], []
    for city_id, ts in ts_by_city.items():
        if len(ts) == 0:
            warnings.warn(f"city {city_id!r} has no activity; dropped from week vectors")
            continue
        counts = np.bincount(_hours_of_week(ts, tz_by_city[city_id]), minlength=HOURS_PER_WEEK)
        rows.append(counts / counts.sum())
        kept.append(city_id)
    if not rows:
        raise SnapGridError("no cities with activity")
    return np.vstack(rows), kept


# ---------------------------------------------------------------------------
# k-means


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    inertia: float
    n_iter: int  # Lloyd updates of the best start


def _squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) matrix of squared euclidean distances
    return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    first = rng.integers(n)
    centers[0] = X[first]
    closest_sq = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total == 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest_sq / total)
        centers[j] = X[idx]
        closest_sq = np.minimum(closest_sq, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int) -> tuple[np.ndarray, float, int]:
    """Labels and inertia at the last centers once an update leaves them in place or after ``max_iter`` updates."""
    n_iter = 0
    while True:
        d2 = _squared_distances(X, centers)
        labels = d2.argmin(axis=1)
        closest = d2[np.arange(X.shape[0]), labels]
        if n_iter == max_iter:
            break
        n_iter += 1
        new_centers = centers.copy()
        for j in range(centers.shape[0]):
            members = X[labels == j]
            if len(members) == 0:
                # revive the dead cluster at the point worst served right now
                new_centers[j] = X[closest.argmax()]
            else:
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    return labels, float(closest.sum()), n_iter


def kmeans(X: np.ndarray, k: int, seed: int = 0) -> ClusterResult:
    """Seeded k-means: best of 10 k-means++ starts, each at most 300 Lloyd iterations."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise SnapGridError(f"expected a 2-d data matrix, got ndim={X.ndim}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise SnapGridError(f"k={k} outside 1..{n}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(10):
        centers0 = _kmeans_pp_init(X, k, rng)
        labels, inertia, n_iter = _lloyd(X, centers0, 300)
        if best is None or inertia < best.inertia:
            best = ClusterResult(
                labels=labels,
                inertia=inertia,
                n_iter=n_iter,
            )
    return best


def silhouette(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient; points in singleton clusters score 0."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    n = X.shape[0]
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise SnapGridError("silhouette needs at least 2 clusters")
    if len(uniq) >= n:
        raise SnapGridError("silhouette undefined when every point is its own cluster")
    dists = np.sqrt(_squared_distances(X, X))
    scores = np.zeros(n)
    sizes = {int(c): int((labels == c).sum()) for c in uniq}
    for i in range(n):
        own = labels[i]
        if sizes[int(own)] == 1:
            scores[i] = 0.0
            continue
        same = labels == own
        a = dists[i, same].sum() / (sizes[int(own)] - 1)
        b = min(dists[i, labels == c].mean() for c in uniq if c != own)
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def elbow_curve(X: np.ndarray, k_values: Sequence[int], seed: int = 0) -> list[tuple[int, float]]:
    """Inertia of the best k-means fit for each candidate k (for elbow plots)."""
    return [(k, kmeans(X, k, seed=seed).inertia) for k in k_values]


def embed_2d(X: np.ndarray) -> np.ndarray:
    """Each row's coordinates on the top two principal components (SVD of centered data), n x 2.

    Each component's sign is fixed so its largest-magnitude loading is
    positive, making embeddings reproducible across platforms.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise SnapGridError("need a 2-d matrix with at least 2 rows")
    centered = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2]
    for j in range(components.shape[0]):
        pivot = np.abs(components[j]).argmax()
        if components[j, pivot] < 0:
            components[j] = -components[j]
    return centered @ components.T
