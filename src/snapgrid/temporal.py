"""Local-time rhythms: hourly profiles, night uplift, and weekly clustering.

All bucketing happens in each city's own IANA timezone, so "18:00" means
evening in that city regardless of where it sits on the globe. Weekly
activity vectors (168 hour-of-week fractions, Monday 00:00 first) feed a
small from-scratch k-means so cities with similar rhythms group together;
silhouette scores and an elbow curve guide the choice of k, and a 2-D PCA
projection provides eyes on the result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyInputError, SnapGridError
from .records import to_local_time

HOURS_PER_WEEK = 168


@dataclass(frozen=True)
class HourlyProfile:
    """Counts of records per local hour of day (24 bins)."""

    city_id: str
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (24,):
            raise SnapGridError(f"hourly profile needs 24 bins, got shape {counts.shape}")
        object.__setattr__(self, "counts", counts)


def hourly_profile(ts: np.ndarray, tz_id: str, city_id: str) -> HourlyProfile:
    """Bucket UTC epoch seconds ``ts`` by their local wall-clock hour."""
    hours = [to_local_time(t, tz_id).hour for t in ts.tolist()]
    return HourlyProfile(city_id=city_id, counts=np.bincount(hours, minlength=24))


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


def night_uplift(profile: HourlyProfile, window: NightWindow = NightWindow()) -> float:
    """Percent excess of mean in-window over mean out-of-window hourly counts.

    100.0 means night hours average twice the day hours. Undefined (raises)
    when the out-of-window mean is zero.
    """
    inside = np.array([window.contains(h) for h in range(24)])
    mean_in = float(profile.counts[inside].mean())
    mean_out = float(profile.counts[~inside].mean())
    if mean_out == 0:
        raise SnapGridError(f"city {profile.city_id}: no activity outside the window; uplift undefined")
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


def week_vector(ts: np.ndarray, tz_id: str) -> np.ndarray:
    """168 hour-of-week activity fractions of UTC epoch seconds ``ts``; index 0 is Monday 00:00 local."""
    if len(ts) == 0:
        raise EmptyInputError("no records to build a week vector from")
    hours = [local.weekday() * 24 + local.hour for local in (to_local_time(t, tz_id) for t in ts.tolist())]
    counts = np.bincount(hours, minlength=HOURS_PER_WEEK)
    return counts / counts.sum()


def week_vectors(ts_by_city: Mapping[str, np.ndarray], tz_by_city: Mapping[str, str]) -> tuple[np.ndarray, list[str]]:
    """Stack per-city week vectors; cities with no activity are dropped with a warning."""
    rows, kept = [], []
    for city_id in ts_by_city:
        try:
            rows.append(week_vector(ts_by_city[city_id], tz_by_city[city_id]))
        except EmptyInputError:
            warnings.warn(f"city {city_id!r} has no activity; dropped from week vectors")
            continue
        kept.append(city_id)
    if not rows:
        raise EmptyInputError("no cities with activity")
    return np.vstack(rows), kept


# ---------------------------------------------------------------------------
# k-means


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: tuple[float, ...] = field(default=(), repr=False)


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


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int):
    history = []
    labels = np.zeros(X.shape[0], dtype=np.int64)
    for it in range(1, max_iter + 1):
        d2 = _squared_distances(X, centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(X.shape[0]), labels].sum())
        history.append(inertia)
        new_centers = centers.copy()
        for j in range(centers.shape[0]):
            members = X[labels == j]
            if len(members) == 0:
                # revive the dead cluster at the point worst served right now
                farthest = d2[np.arange(X.shape[0]), labels].argmax()
                new_centers[j] = X[farthest]
            else:
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            return labels, centers, inertia, it, history
        centers = new_centers
    d2 = _squared_distances(X, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(X.shape[0]), labels].sum())
    history.append(inertia)
    return labels, centers, inertia, max_iter, history


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
        labels, centers, inertia, n_iter, history = _lloyd(X, centers0, 300)
        if best is None or inertia < best.inertia:
            best = ClusterResult(
                labels=labels,
                centers=centers,
                inertia=inertia,
                n_iter=n_iter,
                inertia_history=tuple(history),
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


@dataclass(frozen=True)
class Embedding:
    coords: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray


def embed_2d(X: np.ndarray) -> Embedding:
    """Project rows onto the top two principal components (SVD of centered data).

    Each component's sign is fixed so its largest-magnitude loading is
    positive, making embeddings reproducible across platforms.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise SnapGridError("need a 2-d matrix with at least 2 rows")
    centered = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2].copy()
    for j in range(components.shape[0]):
        pivot = np.abs(components[j]).argmax()
        if components[j, pivot] < 0:
            components[j] = -components[j]
    coords = centered @ components.T
    var = s**2
    total = var.sum()
    ratio = var[:2] / total if total > 0 else np.zeros(min(2, len(var)))
    return Embedding(coords=coords, components=components, explained_variance_ratio=ratio)
