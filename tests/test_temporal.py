"""Hourly profiles, night uplift, week vectors, k-means, PCA embedding."""

import math

import numpy as np
import pytest

from snapgrid.errors import (
    EmptyInputError,
    InvalidKError,
    ShapeError,
    UndefinedCorrelationError,
    UndefinedSilhouetteError,
    UndefinedUpliftError,
)
from snapgrid.records import parse_rfc3339
from snapgrid.temporal import (
    HOURS_PER_WEEK,
    Embedding,
    HourlyProfile,
    NightWindow,
    elbow_curve,
    embed_2d,
    hourly_profile,
    kmeans,
    night_uplift,
    pearson,
    silhouette,
    week_vector,
    week_vectors,
)


def at(*stamps: str) -> np.ndarray:
    """UTC epoch seconds of RFC-3339 ``stamps``."""
    return np.array([parse_rfc3339(t) for t in stamps], dtype=np.int64)


# ---------------------------------------------------------------------------
# profiles and the night window


def test_hourly_profile_uses_local_clock():
    ts = at("2025-03-03T00:10:00Z", "2025-03-03T00:50:00Z", "2025-03-03T21:00:00Z")
    profile = hourly_profile(ts, "Etc/GMT-3", "x")  # fixed UTC+3
    assert profile.counts[3] == 2   # midnight UTC is 03:00 local
    assert profile.counts[0] == 1   # 21:00 UTC rolls into next local day
    assert profile.counts.sum() == 3


def test_night_window_wraps_midnight():
    window = NightWindow()  # 18:00 through 01:59
    assert [h for h in range(24) if window.contains(h)] == [0, 1, 18, 19, 20, 21, 22, 23]
    assert window.contains(18) and window.contains(1)
    assert not window.contains(2) and not window.contains(17)


def test_night_window_plain_interval():
    window = NightWindow(start_hour=9, end_hour=12)
    assert [h for h in range(24) if window.contains(h)] == [9, 10, 11]


@pytest.mark.parametrize(
    "hours", [(18.5, 2), (True, 2), (18, "2"), (18, 24), (-1, 2)], ids=["fraction", "bool", "text", "24", "negative"]
)
def test_night_window_hours_are_ints_of_the_day(hours):
    # NightWindow(18.5, 2) would leave hour 18 out of the night; a bool is not an hour
    with pytest.raises(ValueError, match="_hour must be an int in 0..23"):
        NightWindow(*hours)


def test_night_uplift_flat_profile_is_zero():
    profile = HourlyProfile(city_id="x", counts=np.full(24, 7, dtype=np.int64))
    assert night_uplift(profile) == pytest.approx(0.0)


def test_night_uplift_doubled_nights():
    counts = np.full(24, 10, dtype=np.int64)
    counts[[0, 1, 18, 19, 20, 21, 22, 23]] = 20  # the default window's hours
    profile = HourlyProfile(city_id="x", counts=counts)
    assert night_uplift(profile) == pytest.approx(100.0)


def test_night_uplift_scale_invariant():
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 50, size=24)
    base = night_uplift(HourlyProfile(city_id="x", counts=counts))
    scaled = night_uplift(HourlyProfile(city_id="x", counts=counts * 13))
    assert scaled == pytest.approx(base, abs=1e-9)


def test_night_uplift_undefined_cases():
    quiet_days = np.zeros(24, dtype=np.int64)
    quiet_days[[0, 1, 18, 19, 20, 21, 22, 23]] = 5
    with pytest.raises(UndefinedUpliftError, match="^city x: no activity outside"):
        night_uplift(HourlyProfile(city_id="x", counts=quiet_days))
    with pytest.raises(ValueError, match="whole day"):
        # start == end would wrap to cover the whole day, leaving no hours outside
        NightWindow(0, 0)


# ---------------------------------------------------------------------------
# correlation


def test_pearson_known_values():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, [-2 * v + 7 for v in x]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [2, 2, 4]) == pytest.approx(math.sqrt(3) / 2)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    base = pearson(x, y)
    for _ in range(10):
        a, c = rng.uniform(0.1, 5, size=2)
        b, d = rng.uniform(-10, 10, size=2)
        assert pearson(a * x + b, c * y + d) == pytest.approx(base, abs=1e-12)


def test_pearson_undefined_on_constant_series():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0], [2.0])
    with pytest.raises(ShapeError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# week vectors


def test_week_vector_origin_is_monday_midnight():
    ts = at(
        "2025-03-03T00:30:00Z",  # Monday 00:xx UTC
        "2025-03-04T05:05:00Z",  # Tuesday 05:xx
        "2025-03-09T23:59:59Z",  # Sunday 23:xx
    )
    vec = week_vector(ts, "UTC")
    assert vec.shape == (HOURS_PER_WEEK,)
    assert vec[0] == pytest.approx(1 / 3)
    assert vec[24 + 5] == pytest.approx(1 / 3)
    assert vec[6 * 24 + 23] == pytest.approx(1 / 3)
    assert vec.sum() == pytest.approx(1.0)
    assert (vec >= 0).all()


def test_week_vector_respects_timezone():
    # Monday 23:30 UTC is already Tuesday 02:30 at UTC+3
    vec = week_vector(at("2025-03-03T23:30:00Z"), "Etc/GMT-3")
    assert vec[24 + 2] == pytest.approx(1.0)


def test_week_vector_empty_raises():
    with pytest.raises(EmptyInputError):
        week_vector(at(), "UTC")


def test_week_vectors_drop_silent_cities_with_warning():
    by_city = {"a": at("2025-03-03T10:00:00Z"), "b": at()}
    tz = {"a": "UTC", "b": "UTC"}
    with pytest.warns(UserWarning, match="'b'"):
        X, kept = week_vectors(by_city, tz)
    assert kept == ["a"]
    assert X.shape == (1, HOURS_PER_WEEK)


# ---------------------------------------------------------------------------
# k-means


def blobs(seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = np.vstack([c + rng.normal(scale=0.3, size=(20, 2)) for c in centers])
    truth = np.repeat(np.arange(3), 20)
    return X, truth


def test_kmeans_k_equals_n_gives_zero_inertia():
    X = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    result = kmeans(X, k=3, seed=0)
    assert result.inertia == pytest.approx(0.0)


def test_kmeans_k1_center_is_global_mean():
    X, _ = blobs()
    result = kmeans(X, k=1, seed=0)
    assert result.centers[0] == pytest.approx(X.mean(axis=0))
    tss = float(((X - X.mean(axis=0)) ** 2).sum())
    assert result.inertia == pytest.approx(tss)


def test_kmeans_recovers_separated_blobs():
    X, truth = blobs()
    result = kmeans(X, k=3, seed=0)
    # same-cluster relation must match the ground truth exactly
    co_fit = result.labels[:, None] == result.labels[None, :]
    co_truth = truth[:, None] == truth[None, :]
    assert (co_fit == co_truth).all()


def test_kmeans_is_deterministic_for_fixed_seed():
    X, _ = blobs()
    a = kmeans(X, k=3, seed=42)
    b = kmeans(X, k=3, seed=42)
    assert (a.labels == b.labels).all()
    assert a.inertia == b.inertia
    assert a.centers == pytest.approx(b.centers)


def test_kmeans_inertia_history_never_increases():
    X, _ = blobs(seed=5)
    result = kmeans(X, k=3, seed=5)
    history = result.inertia_history
    assert len(history) >= 1
    for before, after in zip(history, history[1:]):
        assert after <= before + 1e-9


def test_kmeans_validates_k():
    X, _ = blobs()
    with pytest.raises(InvalidKError):
        kmeans(X, k=0)
    with pytest.raises(InvalidKError):
        kmeans(X, k=len(X) + 1)


def test_elbow_inertia_nonincreasing_in_k():
    X, _ = blobs(seed=9)
    curve = elbow_curve(X, [1, 2, 3, 4, 5], seed=9)
    inertias = [v for _k, v in curve]
    for before, after in zip(inertias, inertias[1:]):
        assert after <= before + 1e-6


# ---------------------------------------------------------------------------
# silhouette


def test_silhouette_two_tight_far_pairs():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
    labels = np.array([0, 0, 1, 1])
    assert silhouette(X, labels) > 0.9


def test_silhouette_singleton_scores_zero():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 0.0]])
    labels = np.array([0, 0, 1])
    # the singleton contributes 0, so the mean sits below the pair's score
    score = silhouette(X, labels)
    assert 0.0 < score < 1.0
    a = 0.1
    b = (49.9 + 50.0) / 2
    expected = ((b - a) / b * 2 + 0.0) / 3
    assert score == pytest.approx(expected)


def test_silhouette_undefined_cases():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(UndefinedSilhouetteError):
        silhouette(X, np.zeros(3, dtype=int))  # one cluster
    with pytest.raises(UndefinedSilhouetteError):
        silhouette(X, np.arange(3))  # every point alone


# ---------------------------------------------------------------------------
# PCA embedding


def test_embed_rank_one_collapses_second_axis():
    direction = np.array([1.0, 2.0, 3.0, 4.0])
    X = np.outer([0.0, 1.0, 2.0, 3.0], direction)
    emb = embed_2d(X)
    assert emb.coords[:, 1] == pytest.approx(np.zeros(4), abs=1e-9)
    assert emb.explained_variance_ratio[0] == pytest.approx(1.0)


def test_embed_output_is_centered():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(12, 6))
    emb = embed_2d(X)
    assert emb.coords.mean(axis=0) == pytest.approx(np.zeros(2), abs=1e-9)


def test_embed_variance_matches_eigenvalues():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(4, 4)) @ np.diag([4.0, 2.0, 1.0, 0.5])
    centered = X - X.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
    emb = embed_2d(X)
    proj_ss = (emb.coords**2).sum(axis=0)
    assert proj_ss[0] == pytest.approx(eigvals[0], rel=1e-9)
    assert proj_ss[1] == pytest.approx(eigvals[1], rel=1e-9)
    assert emb.explained_variance_ratio[:2] == pytest.approx(eigvals[:2] / eigvals.sum())


def test_embed_sign_convention():
    rng = np.random.default_rng(12)
    emb = embed_2d(rng.normal(size=(10, 5)))
    for component in emb.components:
        assert component[np.abs(component).argmax()] > 0
