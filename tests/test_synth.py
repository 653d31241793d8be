"""Synthetic corpus generator: planted truth must be exact and reproducible."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from datetime import date, datetime, time, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import record_oracle
import snapgrid
from record_oracle import assert_same_columns
from snapgrid import synth
from snapgrid.annotation import adjudicate, fleiss_kappa, matrix_from_long
from snapgrid.cli import main
from snapgrid.errors import SnapGridError
from snapgrid.records import DRIVING, LABELS, NON_DRIVING, parse_rfc3339, write_snaps
from snapgrid.regression import DESIGN_TERMS, build_design, ols_fit, write_city_stats
from snapgrid.geo import locate_points
from snapgrid.spatial import compare_fits, tile_counts
from snapgrid.synth import (
    COVARIATE_RANGES,
    PLANTED_COEFS,
    CitySynthConfig,
    SynthSpec,
    build_manifest,
    city_region,
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
    assert_same_columns(corpus_a, corpus_b)


def test_different_seed_changes_corpus():
    other = SynthSpec(seed=4, cities=SMALL.cities)
    corpus_a, _ = gen_corpus(SMALL)
    corpus_b, _ = gen_corpus(other)
    assert len(corpus_a) == len(corpus_b)
    assert (corpus_a.lat != corpus_b.lat).any() and (corpus_a.ts != corpus_b.ts).any()


def test_city_streams_are_independent_and_stable():
    a0 = city_rng(3, 0).random(5)
    a0_again = city_rng(3, 0).random(5)
    a1 = city_rng(3, 1).random(5)
    assert (a0 == a0_again).all()
    assert (a0 != a1).any()


def test_record_shape_and_bounds():
    cols, grid = gen_city(SMALL.cities[0], 0, SMALL)
    assert len(cols) == 2000
    start = parse_rfc3339("2025-03-03T00:00:00+03:00")  # local midnight, UTC+3
    end = start + SMALL.n_days * 86400
    south, west, north, east = grid.region.bbox
    assert cols.ids.tobytes().decode() == "".join(f"alpha-{i:06d}" for i in range(2000))
    assert cols.cities.tolist() == ["alpha"] and (cols.city == 0).all()
    assert ((start <= cols.ts) & (cols.ts < end)).all()
    assert ((south <= cols.lat) & (cols.lat <= north)).all()
    assert ((west <= cols.lon) & (cols.lon <= east)).all()
    assert ((3.0 <= cols.duration_s) & (cols.duration_s < 10.0)).all()
    assert np.diff(cols.score_offsets).tolist() == [max(1, int(d)) for d in cols.duration_s.tolist()]
    assert ((0.0 <= cols.scores) & (cols.scores <= 1.0)).all()
    assert set(cols.label.tolist()) == {LABELS.index(DRIVING), LABELS.index(NON_DRIVING)}


def test_planted_driving_fraction_is_exact():
    cfg = CitySynthConfig(
        city_id="solo",
        tz_id="UTC",
        origin_lat=0.0,
        origin_lon=0.0,
        n_records=100_000,
    )
    spec = SynthSpec(seed=0, cities=(cfg,))
    cols, _ = gen_city(cfg, 0, spec)
    fraction = np.mean(cols.label == LABELS.index(DRIVING))
    assert abs(fraction - 0.2356) <= 0.005


def test_zero_driving_fraction_has_no_driving_records():
    cfg = CitySynthConfig(
        city_id="calm", tz_id="UTC", origin_lat=0.0, origin_lon=0.0,
        n_records=500, driving_fraction=0.0,
    )
    cols, _ = gen_city(cfg, 0, SynthSpec(seed=1, cities=(cfg,)))
    assert (cols.label == LABELS.index(NON_DRIVING)).all()


def located_counts(cols, grid, city_id, rows=slice(None)):
    return tile_counts(locate_points(cols.lat[rows], cols.lon[rows], grid), grid, city_id)


def test_near_uniform_weights_spread_counts_evenly():
    cfg = CitySynthConfig(
        city_id="flat", tz_id="UTC", origin_lat=0.0, origin_lon=0.0,
        n_rows=5, n_cols=5, n_records=10_000,
        family="normal", family_params={"mu": 5.0, "sigma": 1e-9},
    )
    cols, grid = gen_city(cfg, 0, SynthSpec(seed=2, cities=(cfg,)))
    vec = located_counts(cols, grid, "flat")
    counts = vec.counts
    assert counts.min() > 0
    assert counts.max() / counts.min() < 1.2


def test_tile_counts_recover_planted_power_law():
    spec = default_spec(seed=0, n_cities=1)
    cols, grid = gen_city(spec.cities[0], 0, spec)
    driving = cols.label == LABELS.index(DRIVING)
    comp = compare_fits(located_counts(cols, grid, "city00", driving).positive_counts, "city00")
    assert comp.best_by_bic == "power_law"


def test_deleted_fraction_close_to_config():
    cols, _ = gen_city(SMALL.cities[0], 0, SMALL)
    rate = np.mean(cols.deleted)
    assert rate == pytest.approx(0.0298, abs=0.02)


def test_night_hours_are_boosted():
    cols, _ = gen_city(SMALL.cities[0], 0, SMALL)
    # planted factor 1.75 on the 8 night hours of the local clock
    hours = np.bincount((cols.ts // 3600 + 3) % 24, minlength=24)  # tz is fixed UTC+3
    night = (0, 1, 18, 19, 20, 21, 22, 23)
    day = tuple(h for h in range(24) if h not in night)
    uplift = hours[list(night)].mean() / hours[list(day)].mean() - 1.0
    assert uplift == pytest.approx(0.75, abs=0.15)


# ---------------------------------------------------------------------------
# the column path against the record-by-record generator

ZONES = ("Etc/GMT+5", "Etc/GMT-9", "Europe/London", "America/New_York", "Australia/Lord_Howe", "Asia/Kathmandu",
         "America/St_Johns")


def _offset_changes(tz_id: str) -> list[date]:
    """The local dates whose noon has another UTC offset than the day before's, in a few years of the zone's rules.

    1985-86 holds Kathmandu's move to +5:45 at midnight, 2010 St John's changes at 00:01, 2024 the rules of today.
    """
    zone, days = ZoneInfo(tz_id), []
    for first in (date(1985, 12, 1), date(2010, 1, 1), date(2024, 1, 1)):
        noons = [datetime.combine(first + timedelta(days=k), time(12), zone) for k in range(400)]
        days += [b.date() for a, b in zip(noons, noons[1:]) if a.utcoffset() != b.utcoffset()]
    return days or [date(2025, 3, 3)]


CHANGES = {tz: _offset_changes(tz) for tz in ZONES}


@st.composite
def _small_specs(draw) -> SynthSpec:
    """1-3 cities of 1-300 records, starting within a day of a DST change of one of their zones."""
    cities = tuple(
        CitySynthConfig(
            city_id=f"c{k}", tz_id=draw(st.sampled_from(ZONES)), origin_lat=draw(st.floats(-60.0, 60.0)),
            origin_lon=draw(st.floats(-170.0, 170.0)), n_records=draw(st.integers(1, 300)),
            n_rows=draw(st.integers(1, 4)), n_cols=draw(st.integers(1, 4)),
            driving_fraction=draw(st.sampled_from([0.0, 0.2356, 1.0])),
            deleted_fraction=draw(st.sampled_from([0.0, 0.0298, 1.0])),
        )
        for k in range(draw(st.integers(1, 3)))
    )
    change = draw(st.sampled_from(CHANGES[draw(st.sampled_from([c.tz_id for c in cities]))]))
    return SynthSpec(
        seed=draw(st.integers(0, 2**32 - 1)), cities=cities,
        start_date=(change - timedelta(days=draw(st.integers(0, 1)))).isoformat(), n_days=draw(st.integers(1, 3)),
        duration_range=draw(st.sampled_from([(3.0, 10.0), (0.1, 0.9)])),  # below 1 s every clip has one frame
    )


@settings(max_examples=60, deadline=None)
@given(_small_specs())
def test_columns_write_the_bytes_of_the_record_by_record_generator(tmp_path_factory, spec):
    out = tmp_path_factory.mktemp("synth")
    cols, grids = gen_corpus(spec)
    recs = record_oracle.gen_corpus(spec)
    assert list(grids) == [c.city_id for c in spec.cities]
    assert_same_columns(cols, record_oracle.columns(recs))
    write_snaps([cols], out / "columns.jsonl")
    # a city at a time, as snapgrid synth writes them: each city's draws do not depend on the others
    write_snaps((gen_corpus(spec, [i])[0] for i in range(len(spec.cities))), out / "cities.jsonl")
    record_oracle.write_snaps(recs, out / "records.jsonl")
    want = (out / "records.jsonl").read_bytes()
    assert (out / "columns.jsonl").read_bytes() == want and (out / "cities.jsonl").read_bytes() == want


SYNTH_FILES = ("manifest.json", "snaps.jsonl", "annotations.csv", "city_stats.csv", "pipeline.yaml")


def test_synth_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(snapgrid.__file__).resolve().parents[1])
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-B", "-m", "snapgrid.cli", "synth", "--seed", "8", "--out-dir",
                        str(tmp_path / hash_seed), "--cities", "2", "--records", "50"], env=env, check=True,
                       capture_output=True)
    assert sorted(p.name for p in (tmp_path / "0").iterdir()) == sorted(SYNTH_FILES)
    first, second = ({name: (tmp_path / seed / name).read_bytes() for name in SYNTH_FILES} for seed in ("0", "1"))
    assert [name for name in SYNTH_FILES if first[name] != second[name]] == []


def _whole_corpus_files(out: Path, seed: int, n_cities: int, n_records: int, annotated: int) -> None:
    """The five synth files as the whole corpus in memory at once gives them: every record through ``json.dumps``,
    and the annotations of each city's first ``annotated`` records."""
    spec = default_spec(seed, n_cities=n_cities, n_records=n_records)
    cols, _grids = gen_corpus(spec)
    out.mkdir()
    record_oracle.write_snaps(cols.to_records(range(len(cols))), out / "snaps.jsonl")
    sample = cols.to_records(np.flatnonzero(np.arange(len(cols)) % n_records < annotated))
    with open(out / "annotations.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [("item_id", "rater_id", "category"), *gen_annotations(sample, flip_prob=0.1, seed=seed)])
    write_city_stats(gen_regression_cities(130, seed=seed, noise_sigma=0.1), out / "city_stats.csv")
    write_manifest(build_manifest(spec, regression_sigma=0.1), out / "manifest.json")
    pipeline = {"seed": seed, "snaps": "snaps.jsonl", "annotations": "annotations.csv", "city_stats": "city_stats.csv",
                "night_window": {"start_hour": 18, "end_hour": 2}, "clustering": {"k": 3},
                "cities": {c.city_id: {"tz": c.tz_id, "bbox": list(city_region(c).bbox)} for c in spec.cities}}
    (out / "pipeline.yaml").write_text(yaml.safe_dump(pipeline, sort_keys=True))


@pytest.mark.parametrize("n_cities, n_records, annotated", [(1, 300, 20), (3, 300, 20), (3, 1500, 5), (3, 50, 0),
                                                            (3, 40, 100)])
def test_synth_city_by_city_writes_the_files_of_the_whole_corpus(tmp_path, n_cities, n_records, annotated):
    # 1500 records a city cross the writer's chunks; --annotated 100 of 40 records takes every record
    args = ["--cities", str(n_cities), "--records", str(n_records), "--annotated", str(annotated)]
    assert main(["synth", "--seed", "6", "--out-dir", str(tmp_path / "cli"), *args]) == 0
    _whole_corpus_files(tmp_path / "whole", 6, n_cities, n_records, annotated)
    got, want = ({name: (tmp_path / side / name).read_bytes() for name in SYNTH_FILES} for side in ("cli", "whole"))
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == sorted(SYNTH_FILES)
    assert [name for name in SYNTH_FILES if got[name] != want[name]] == []


def _synth_peak_bytes(out: Path, n_cities: int) -> int:
    """The peak of the memory that Python and numpy allocate during one in-process synth of ``n_cities`` x 2k."""
    tracemalloc.start()
    try:
        # the annotated sample grows with the cities by design, so it is kept small here
        assert main(["synth", "--seed", "2", "--out-dir", str(out), "--cities", str(n_cities), "--records", "2000",
                     "--annotated", "5"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_memory_is_one_city_not_the_corpus(tmp_path):
    _synth_peak_bytes(tmp_path / "warm", 1)  # first-call caches out of the way
    few, many = (_synth_peak_bytes(tmp_path / str(n), n) for n in (3, 12))
    # holding every city's columns at once, 12 cities peaked at 2.1x of 3 (5.7 MB against 2.7 MB)
    assert many <= 1.3 * few, (few, many)


def test_synth_failing_in_a_city_leaves_the_out_dir_as_it_was(tmp_path, monkeypatch, capsys):
    before = {"manifest.json": b"previous manifest", "annotations.csv": b"previous annotations", "mine.txt": b"mine"}
    for name, content in before.items():
        (tmp_path / name).write_bytes(content)
    real, drawn = synth.gen_city, []

    def gen_city(cfg, city_index, spec):
        drawn.append(city_index)
        if city_index == 2:
            raise SnapGridError(f"city {cfg.city_id}: failed on purpose")
        return real(cfg, city_index, spec)

    monkeypatch.setattr(synth, "gen_city", gen_city)
    assert main(["synth", "--seed", "1", "--out-dir", str(tmp_path), "--cities", "4", "--records", "50"]) == 1
    assert drawn == [0, 1, 2]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "city02: failed on purpose" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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
    cols, _ = gen_city(spec.cities[0], 0, spec)
    return cols.to_records(range(len(cols)))


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
