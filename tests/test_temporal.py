"""Hourly profiles, night uplift, week vectors, k-means, PCA embedding."""

import math
from datetime import datetime, timezone
from functools import cache
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snapgrid.errors import SnapGridError
from snapgrid.records import parse_rfc3339
from snapgrid.temporal import (
    HOURS_PER_WEEK,
    NIGHT,
    elbow_curve,
    embed_2d,
    hourly_profile,
    kmeans,
    night_uplift,
    pearson,
    silhouette,
    week_vectors,
)


def at(*stamps: str) -> np.ndarray:
    """UTC epoch seconds of RFC-3339 ``stamps``."""
    return np.array([parse_rfc3339(t) for t in stamps], dtype=np.int64)


def one_week_vector(ts: np.ndarray, tz_id: str) -> np.ndarray:
    """``week_vectors``' row for a single city."""
    X, kept = week_vectors({"c": ts}, {"c": tz_id})
    assert kept == ["c"]
    return X[0]


# ---------------------------------------------------------------------------
# profiles and the night window


def test_hourly_profile_uses_local_clock():
    ts = at("2025-03-03T00:10:00Z", "2025-03-03T00:50:00Z", "2025-03-03T21:00:00Z")
    profile = hourly_profile(ts, "Etc/GMT-3")  # fixed UTC+3
    assert profile.shape == (24,)
    assert profile[3] == 2   # midnight UTC is 03:00 local
    assert profile[0] == 1   # 21:00 UTC rolls into next local day
    assert profile.sum() == 3


def test_night_window_wraps_midnight():
    # 18:00 through 01:59
    assert NIGHT.shape == (24,)
    assert np.flatnonzero(NIGHT).tolist() == [0, 1, 18, 19, 20, 21, 22, 23]


def test_night_uplift_flat_profile_is_zero():
    assert night_uplift(np.full(24, 7, dtype=np.int64), "x") == pytest.approx(0.0)


def test_night_uplift_doubled_nights():
    counts = np.full(24, 10, dtype=np.int64)
    counts[NIGHT] = 20
    assert night_uplift(counts, "x") == pytest.approx(100.0)


def test_night_uplift_scale_invariant():
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 50, size=24)
    base = night_uplift(counts, "x")
    scaled = night_uplift(counts * 13, "x")
    assert scaled == pytest.approx(base, abs=1e-9)


def test_night_uplift_undefined_cases():
    quiet_days = np.zeros(24, dtype=np.int64)
    quiet_days[NIGHT] = 5
    with pytest.raises(SnapGridError, match="^city x: no activity outside the window; uplift undefined$"):
        night_uplift(quiet_days, "x")


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
    with pytest.raises(SnapGridError, match="^zero variance on at least one side$"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(SnapGridError, match="^need at least 2 points$"):
        pearson([1.0], [2.0])
    with pytest.raises(SnapGridError, match=r"^shape mismatch: \(2,\) vs \(3,\)$"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# week vectors


def test_week_vector_origin_is_monday_midnight():
    ts = at(
        "2025-03-03T00:30:00Z",  # Monday 00:xx UTC
        "2025-03-04T05:05:00Z",  # Tuesday 05:xx
        "2025-03-09T23:59:59Z",  # Sunday 23:xx
    )
    vec = one_week_vector(ts, "UTC")
    assert vec.shape == (HOURS_PER_WEEK,)
    assert vec[0] == pytest.approx(1 / 3)
    assert vec[24 + 5] == pytest.approx(1 / 3)
    assert vec[6 * 24 + 23] == pytest.approx(1 / 3)
    assert vec.sum() == pytest.approx(1.0)
    assert (vec >= 0).all()


def test_week_vector_respects_timezone():
    # Monday 23:30 UTC is already Tuesday 02:30 at UTC+3
    vec = one_week_vector(at("2025-03-03T23:30:00Z"), "Etc/GMT-3")
    assert vec[24 + 2] == pytest.approx(1.0)


def test_week_vectors_without_activity_raise():
    with pytest.warns(UserWarning, match="'c'"), pytest.raises(SnapGridError, match="^no cities with activity$"):
        week_vectors({"c": at()}, {"c": "UTC"})


def test_week_vectors_drop_silent_cities_with_warning():
    by_city = {"a": at("2025-03-03T10:00:00Z"), "b": at()}
    tz = {"a": "UTC", "b": "UTC"}
    with pytest.warns(UserWarning, match="'b'"):
        X, kept = week_vectors(by_city, tz)
    assert kept == ["a"]
    assert X.shape == (1, HOURS_PER_WEEK)


# Zones whose offset changes: DST in each hemisphere, a 30-minute DST step
# (Lord Howe), a 15-minute base offset change (Kathmandu, 1986), a
# half-hour zone whose changes fell at 00:01 local (St John's) and a zone
# whose offset held seconds until 1972, -0:43:08 and then -0:44:30 (Monrovia).
DST_ZONES = ("Europe/London", "America/New_York", "Australia/Lord_Howe", "Asia/Kathmandu", "America/St_Johns",
             "Africa/Monrovia")
# synth's fixed offsets, UTC-5 and UTC+9: they never change, so their stamps are drawn anywhere in the scan
FIXED_ZONES = ("Etc/GMT+5", "Etc/GMT-9")
_SCAN_FROM = int(datetime(1900, 1, 1, tzinfo=timezone.utc).timestamp())
_SCAN_TO = int(datetime(2040, 1, 1, tzinfo=timezone.utc).timestamp())


@cache
def transitions(tz_id: str) -> tuple[int, ...]:
    """The first UTC second of each new UTC offset of ``tz_id`` in 1900-2039, from a daily scan and bisection."""
    zone = ZoneInfo(tz_id)

    def offset(t):
        return datetime.fromtimestamp(t, zone).utcoffset()

    days = range(_SCAN_FROM, _SCAN_TO, 86_400)
    offsets = [offset(t) for t in days]
    found = []
    for i in np.flatnonzero([a != b for a, b in zip(offsets, offsets[1:])]).tolist():
        lo, hi = days[i], days[i + 1]  # offset(lo) is the old offset, offset(hi) the new one
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if offset(mid) == offsets[i] else (lo, mid)
        found.append(hi)
    return tuple(found)


def hour_start(t: int, tz_id: str) -> int:
    """The UTC second at which the local hour holding ``t`` began (by the offset at ``t``)."""
    local = datetime.fromtimestamp(t, ZoneInfo(tz_id))
    return int(local.replace(minute=0, second=0).timestamp())


@st.composite
def zone_and_stamps(draw):
    """A zone and 1-40 UTC seconds: for a zone with transitions, each within a minute of one of up to three of
    them or of the start of a local hour; for a fixed offset, anywhere in the scan."""
    tz_id = draw(st.sampled_from(DST_ZONES + FIXED_ZONES))
    if tz_id in FIXED_ZONES:
        stamps = st.integers(_SCAN_FROM, _SCAN_TO - 1)
    else:
        hours = st.builds(hour_start, st.integers(_SCAN_FROM, _SCAN_TO - 1), st.just(tz_id))
        moments = draw(st.lists(st.sampled_from(transitions(tz_id)) | hours, min_size=1, max_size=3))
        stamps = st.builds(int.__add__, st.sampled_from(moments), st.integers(-60, 60))
    return tz_id, np.array(draw(st.lists(stamps, min_size=1, max_size=40)), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(st.lists(zone_and_stamps(), min_size=1, max_size=3))
def test_local_hours_match_zoneinfo_across_offset_changes(cities):
    ts_by_city = {f"c{i}": ts for i, (_tz, ts) in enumerate(cities)}
    tz_by_city = {f"c{i}": tz for i, (tz, _ts) in enumerate(cities)}
    X, kept = week_vectors(ts_by_city, tz_by_city)
    assert kept == list(ts_by_city)
    for row, (tz_id, ts) in zip(X, cities):
        hours, week = np.zeros(24, dtype=np.int64), np.zeros(HOURS_PER_WEEK, dtype=np.int64)
        for t in ts.tolist():
            local = datetime.fromtimestamp(t, ZoneInfo(tz_id))
            hours[local.hour] += 1
            week[local.weekday() * 24 + local.hour] += 1
        assert hourly_profile(ts, tz_id).tolist() == hours.tolist()
        assert np.rint(row * len(ts)).astype(np.int64).tolist() == week.tolist()


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
    assert a.n_iter == b.n_iter


def test_kmeans_returns_a_lloyd_fixed_point():
    X, _ = blobs(seed=5)
    result = kmeans(X, k=3, seed=5)
    assert 1 <= result.n_iter <= 300
    means = np.array([X[result.labels == j].mean(axis=0) for j in range(3)])
    d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert (d2.argmin(axis=1) == result.labels).all()  # each point's label is its nearest cluster mean
    assert result.inertia == pytest.approx(d2[np.arange(len(X)), result.labels].sum())


def test_kmeans_validates_k():
    X, _ = blobs()
    with pytest.raises(SnapGridError, match=rf"^k=0 outside 1\.\.{len(X)}$"):
        kmeans(X, k=0)
    with pytest.raises(SnapGridError, match=rf"^k={len(X) + 1} outside 1\.\.{len(X)}$"):
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
    with pytest.raises(SnapGridError, match="^silhouette needs at least 2 clusters$"):
        silhouette(X, np.zeros(3, dtype=int))  # one cluster
    with pytest.raises(SnapGridError, match="^silhouette undefined when every point is its own cluster$"):
        silhouette(X, np.arange(3))  # every point alone


# ---------------------------------------------------------------------------
# PCA embedding


def test_embed_rank_one_collapses_second_axis():
    direction = np.array([1.0, 2.0, 3.0, 4.0])
    X = np.outer([0.0, 1.0, 2.0, 3.0], direction)
    coords = embed_2d(X)
    assert coords.shape == (4, 2)
    assert coords[:, 1] == pytest.approx(np.zeros(4), abs=1e-9)


def test_embed_output_is_centered():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(12, 6))
    assert embed_2d(X).mean(axis=0) == pytest.approx(np.zeros(2), abs=1e-9)


def test_embed_variance_matches_eigenvalues():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(4, 4)) @ np.diag([4.0, 2.0, 1.0, 0.5])
    centered = X - X.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
    proj_ss = (embed_2d(X) ** 2).sum(axis=0)
    assert proj_ss[0] == pytest.approx(eigvals[0], rel=1e-9)
    assert proj_ss[1] == pytest.approx(eigvals[1], rel=1e-9)


def test_embed_sign_convention():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(10, 5))
    coords = embed_2d(X)
    for axis in coords.T:
        # centered.T @ coords[:, j] is the j-th component scaled by its positive squared singular value
        component = (X - X.mean(axis=0)).T @ axis
        assert component[np.abs(component).argmax()] > 0
