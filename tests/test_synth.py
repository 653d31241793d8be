"""Synthetic corpus generator: planted truth must be exact and reproducible."""

import math

import numpy as np
import pytest

from snapgrid.annotation import adjudicate, fleiss_kappa, matrix_from_long
from snapgrid.records import DRIVING, NON_DRIVING, SnapColumns, parse_rfc3339
from snapgrid.regression import DESIGN_TERMS, build_design, ols_fit
from snapgrid.geo import locate_points
from snapgrid.spatial import compare_fits, tile_counts
from snapgrid.synth import (
    COVARIATE_RANGES,
    PLANTED_COEFS,
    CitySynthConfig,
    SynthSpec,
    build_manifest,
    city_rng,
    default_spec,
    gen_annotations,
    gen_city,
    gen_corpus,
    gen_planted_week_vectors,
    gen_regression_cities,
    load_manifest,
    sample_family,
    write_manifest,
)

SMALL = SynthSpec(
    seed=3,
    cities=(
        CitySynthConfig(
            city_id="alpha",
            tz_id="Etc/GMT-3",
            origin_lat=24.6,
            origin_lon=46.6,
            n_rows=4,
            n_cols=4,
            n_records=2000,
        ),
        CitySynthConfig(
            city_id="beta",
            tz_id="Etc/GMT+5",
            origin_lat=40.7,
            origin_lon=-74.0,
            n_rows=4,
            n_cols=4,
            n_records=2000,
        ),
    ),
)


def test_same_seed_reproduces_corpus_bit_for_bit():
    corpus_a, _ = gen_corpus(SMALL)
    corpus_b, _ = gen_corpus(SMALL)
    assert corpus_a == corpus_b


def test_different_seed_changes_corpus():
    other = SynthSpec(seed=4, cities=SMALL.cities)
    corpus_a, _ = gen_corpus(SMALL)
    corpus_b, _ = gen_corpus(other)
    assert corpus_a != corpus_b


def test_city_streams_are_independent_and_stable():
    a0 = city_rng(3, 0).random(5)
    a0_again = city_rng(3, 0).random(5)
    a1 = city_rng(3, 1).random(5)
    assert (a0 == a0_again).all()
    assert (a0 != a1).any()


def test_record_shape_and_bounds():
    records, grid = gen_city(SMALL.cities[0], 0, SMALL)
    assert len(records) == 2000
    start = parse_rfc3339("2025-03-03T00:00:00+03:00")  # local midnight, UTC+3
    end = start + SMALL.n_days * 86400
    south, west, north, east = grid.region.bbox
    for rec in records[:200]:
        assert rec.id.startswith("alpha-")
        assert start <= rec.ts_utc < end
        assert south <= rec.location.lat <= north
        assert west <= rec.location.lon <= east
        assert 3.0 <= rec.duration_s < 10.0
        assert len(rec.frame_scores) == max(1, int(rec.duration_s))
        assert rec.label in (DRIVING, NON_DRIVING)


def test_planted_driving_fraction_is_exact():
    cfg = CitySynthConfig(
        city_id="solo",
        tz_id="UTC",
        origin_lat=0.0,
        origin_lon=0.0,
        n_records=100_000,
    )
    spec = SynthSpec(seed=0, cities=(cfg,))
    records, _ = gen_city(cfg, 0, spec)
    fraction = sum(1 for r in records if r.label == DRIVING) / len(records)
    assert abs(fraction - 0.2356) <= 0.005


def test_zero_driving_fraction_has_no_driving_records():
    cfg = CitySynthConfig(
        city_id="calm", tz_id="UTC", origin_lat=0.0, origin_lon=0.0,
        n_records=500, driving_fraction=0.0,
    )
    records, _ = gen_city(cfg, 0, SynthSpec(seed=1, cities=(cfg,)))
    assert all(r.label == NON_DRIVING for r in records)


def located_counts(records, grid, city_id):
    cols = SnapColumns.from_records(records)
    return tile_counts(locate_points(cols.lat, cols.lon, grid), grid, city_id)


def test_near_uniform_weights_spread_counts_evenly():
    cfg = CitySynthConfig(
        city_id="flat", tz_id="UTC", origin_lat=0.0, origin_lon=0.0,
        n_rows=5, n_cols=5, n_records=10_000,
        family="normal", family_params={"mu": 5.0, "sigma": 1e-9},
    )
    records, grid = gen_city(cfg, 0, SynthSpec(seed=2, cities=(cfg,)))
    vec = located_counts(records, grid, "flat")
    counts = vec.counts
    assert counts.min() > 0
    assert counts.max() / counts.min() < 1.2


def test_tile_counts_recover_planted_power_law():
    spec = default_spec(seed=0, n_cities=1)
    records, grid = gen_city(spec.cities[0], 0, spec)
    driving = [r for r in records if r.label == DRIVING]
    comp = compare_fits(located_counts(driving, grid, "city00").positive_counts, "city00")
    assert comp.best_by_bic == "power_law"


def test_deleted_fraction_close_to_config():
    records, _ = gen_city(SMALL.cities[0], 0, SMALL)
    rate = sum(1 for r in records if r.deleted) / len(records)
    assert rate == pytest.approx(0.0298, abs=0.02)


def test_night_hours_are_boosted():
    records, _ = gen_city(SMALL.cities[0], 0, SMALL)
    # planted factor 1.75 on the 8 night hours of the local clock
    hours = np.zeros(24)
    for r in records:
        local_h = (r.ts_utc // 3600 + 3) % 24  # tz is fixed UTC+3
        hours[local_h] += 1
    night = (0, 1, 18, 19, 20, 21, 22, 23)
    day = tuple(h for h in range(24) if h not in night)
    uplift = hours[list(night)].mean() / hours[list(day)].mean() - 1.0
    assert uplift == pytest.approx(0.75, abs=0.15)


# ---------------------------------------------------------------------------
# family sampler


def test_sample_family_moments():
    rng = np.random.default_rng(5)
    x = sample_family("exponential", {"lam": 2.0}, 50_000, rng)
    assert x.mean() == pytest.approx(0.5, abs=0.02)
    x = sample_family("normal", {"mu": 3.0, "sigma": 0.5}, 50_000, rng)
    assert x.mean() == pytest.approx(3.0, abs=0.02)
    x = sample_family("power_law", {"alpha": 3.0, "x_min": 2.0}, 50_000, rng)
    assert x.min() >= 2.0
    # E[X] = x_min (alpha-1)/(alpha-2) = 4 for alpha 3
    assert x.mean() == pytest.approx(4.0, abs=0.25)
    with pytest.raises(ValueError):
        sample_family("cauchy", {}, 10, rng)


# ---------------------------------------------------------------------------
# annotation noise


def sample_records(n):
    spec = SynthSpec(
        seed=7,
        cities=(
            CitySynthConfig(
                city_id="ann", tz_id="UTC", origin_lat=0.0, origin_lon=0.0, n_records=n
            ),
        ),
    )
    records, _ = gen_city(spec.cities[0], 0, spec)
    return records


def test_zero_flip_probability_is_unanimous():
    records = sample_records(50)
    rows = gen_annotations(records, flip_prob=0.0, seed=0)
    matrix = matrix_from_long(rows)
    assert fleiss_kappa(matrix) == 1.0


def test_flip_probability_bound():
    records = sample_records(5)
    with pytest.raises(ValueError):
        gen_annotations(records, flip_prob=0.5, seed=0)
    with pytest.raises(ValueError):
        gen_annotations(records, flip_prob=-0.1, seed=0)


def test_adjudication_recovers_truth_under_noise():
    records = sample_records(5000)
    rows = gen_annotations(records, flip_prob=0.1, seed=0)
    matrix = matrix_from_long(rows)
    adjudicated = {g.item_id: g.label for g in adjudicate(matrix, DRIVING)}
    truth = {r.id: r.label for r in records}
    agree = sum(1 for rid in truth if adjudicated[rid] == truth[rid])
    assert agree / len(truth) >= 0.97


# ---------------------------------------------------------------------------
# regression cities


def test_zero_noise_regression_recovers_planted_coefficients():
    cities = gen_regression_cities(130, seed=0, noise_sigma=0.0)
    design = build_design(cities)
    assert design.excluded == ()
    fit = ols_fit(design.X, design.y, design.columns)
    assert fit.coefs == pytest.approx(np.array(PLANTED_COEFS), abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0)


def test_regression_covariates_stay_in_ranges():
    cities = gen_regression_cities(200, seed=1, noise_sigma=0.1)
    lo, hi = COVARIATE_RANGES["male_frac"]
    for c in cities:
        assert lo * 100 <= c.male_pct <= hi * 100
        assert COVARIATE_RANGES["age_lt20_pct"][0] <= c.age_lt20_pct <= COVARIATE_RANGES["age_lt20_pct"][1]
        log_ts = math.log(c.total_snaps + 1.0)
        assert COVARIATE_RANGES["log_total_snaps"][0] - 1e-9 <= log_ts <= COVARIATE_RANGES["log_total_snaps"][1] + 1e-9


def test_regression_cities_deterministic():
    a = gen_regression_cities(50, seed=9, noise_sigma=0.1)
    b = gen_regression_cities(50, seed=9, noise_sigma=0.1)
    assert a == b


# ---------------------------------------------------------------------------
# planted week vectors


def test_planted_week_vectors_shape():
    X, labels = gen_planted_week_vectors(30, 3, seed=0)
    assert X.shape == (30, 168)
    assert X.sum(axis=1) == pytest.approx(np.ones(30))
    assert (X >= 0).all()
    assert set(labels.tolist()) == {0, 1, 2}


# ---------------------------------------------------------------------------
# manifest


def test_manifest_round_trip(tmp_path):
    manifest = build_manifest(SMALL, regression_sigma=0.1)
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    loaded = load_manifest(path)
    assert loaded == manifest
    assert loaded["seed"] == 3
    assert loaded["cities"]["alpha"]["driving_fraction"] == 0.2356
    assert loaded["cities"]["alpha"]["night_uplift_factor"] == 1.75
    assert loaded["cities"]["alpha"]["family"] == "power_law"
    assert loaded["regression"]["coefs"] == dict(zip(DESIGN_TERMS, PLANTED_COEFS))
