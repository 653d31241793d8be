"""Synthetic corpus generator: planted truth must be exact and reproducible."""

import csv
import math
import tracemalloc
from datetime import date, datetime, time, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import record_oracle
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
    for i in range(len(SMALL.cities)):
        assert_same_columns(gen_corpus(SMALL, i)[0], gen_corpus(SMALL, i)[0])


def test_different_seed_changes_corpus():
    other = SynthSpec(seed=4, cities=SMALL.cities)
    for i in range(len(SMALL.cities)):
        (city_a, _), (city_b, _) = gen_corpus(SMALL, i), gen_corpus(other, i)
        assert len(city_a) == len(city_b)
        assert (city_a.lat != city_b.lat).any() and (city_a.ts != city_b.ts).any()


def test_city_streams_are_independent_and_stable():
    a0 = city_rng(3, 0).random(5)
    a0_again = city_rng(3, 0).random(5)
    a1 = city_rng(3, 1).random(5)
    assert (a0 == a0_again).all()
    assert (a0 != a1).any()


def test_record_shape_and_bounds():
    cols, _ = gen_corpus(SMALL, 0)
    assert len(cols) == 2000
    start = parse_rfc3339("2025-03-03T00:00:00+03:00")  # local midnight, UTC+3
    end = start + SMALL.n_days * 86400
    south, west, north, east = city_region(SMALL.cities[0]).bbox
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
    cols, _ = gen_corpus(spec, 0)
    fraction = np.mean(cols.label == LABELS.index(DRIVING))
    assert abs(fraction - 0.2356) <= 0.005


def test_zero_driving_fraction_has_no_driving_records():
    cfg = CitySynthConfig(
        city_id="calm", tz_id="UTC", origin_lat=0.0, origin_lon=0.0,
        n_records=500, driving_fraction=0.0,
    )
    cols, _ = gen_corpus(SynthSpec(seed=1, cities=(cfg,)), 0)
    assert (cols.label == LABELS.index(NON_DRIVING)).all()


def located_counts(cols, grid, rows=slice(None)):
    return tile_counts(locate_points(cols.lat[rows], cols.lon[rows], grid), grid)


def test_near_uniform_weights_spread_counts_evenly():
    cfg = CitySynthConfig(
        city_id="flat", tz_id="UTC", origin_lat=0.0, origin_lon=0.0,
        n_rows=5, n_cols=5, n_records=10_000,
        family="normal", family_params={"mu": 5.0, "sigma": 1e-9},
    )
    cols, grid = gen_corpus(SynthSpec(seed=2, cities=(cfg,)), 0)
    vec = located_counts(cols, grid)
    counts = vec.counts
    assert counts.min() > 0
    assert counts.max() / counts.min() < 1.2


def test_tile_counts_recover_planted_power_law():
    spec = default_spec(seed=0, n_cities=1)
    cols, grid = gen_corpus(spec, 0)
    driving = cols.label == LABELS.index(DRIVING)
    comp = compare_fits(located_counts(cols, grid, driving).positive_counts, "city00")
    assert comp.best_by_bic == "power_law"


def test_deleted_fraction_close_to_config():
    cols, _ = gen_corpus(SMALL, 0)
    rate = np.mean(cols.deleted)
    assert rate == pytest.approx(0.0298, abs=0.02)


def test_night_hours_are_boosted():
    cols, _ = gen_corpus(SMALL, 0)
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
    recs = record_oracle.gen_corpus(spec)
    cities = [gen_corpus(spec, i) for i in range(len(spec.cities))]
    for cfg, (cols, grid) in zip(spec.cities, cities):
        assert_same_columns(cols, record_oracle.columns([rec for rec in recs if rec.city_id == cfg.city_id]))
        assert (grid.n_rows, grid.n_cols) == (cfg.n_rows, cfg.n_cols)
    # a city at a time, as snapgrid synth writes them
    write_snaps((cols for cols, _grid in cities), out / "columns.jsonl")
    record_oracle.write_snaps(recs, out / "records.jsonl")
    assert (out / "columns.jsonl").read_bytes() == (out / "records.jsonl").read_bytes()


SYNTH_FILES = ("manifest.json", "snaps.jsonl", "annotations.csv", "city_stats.csv", "pipeline.yaml")


def _whole_corpus_files(out: Path, seed: int, n_cities: int, n_records: int) -> None:
    """The five synth files as the record-by-record generator gives them, the whole corpus at once: every record
    through ``json.dumps``, and the annotations of each city's first ``synth.N_ANNOTATED`` records."""
    spec = default_spec(seed, n_cities=n_cities, n_records=n_records)
    recs = record_oracle.gen_corpus(spec)
    out.mkdir()
    record_oracle.write_snaps(recs, out / "snaps.jsonl")
    sample = [rec for k, rec in enumerate(recs) if k % n_records < synth.N_ANNOTATED]
    with open(out / "annotations.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [("item_id", "rater_id", "category"),
             *gen_annotations([rec.id for rec in sample], [rec.label for rec in sample], seed=seed)])
    write_city_stats(gen_regression_cities(130, seed=seed, noise_sigma=0.1), out / "city_stats.csv")
    write_manifest(build_manifest(spec, regression_sigma=0.1), out / "manifest.json")
    pipeline = {"seed": seed, "snaps": "snaps.jsonl", "annotations": "annotations.csv", "city_stats": "city_stats.csv",
                "cities": {c.city_id: {"tz": c.tz_id, "bbox": list(city_region(c).bbox)} for c in spec.cities}}
    (out / "pipeline.yaml").write_text(yaml.safe_dump(pipeline, sort_keys=True))


@pytest.mark.parametrize("n_cities, n_records", [(1, 300), (3, 300), (3, 1500), (3, 50)])
def test_synth_city_by_city_writes_the_files_of_the_whole_corpus(tmp_path, n_cities, n_records):
    # 1500 records a city cross the writer's chunks; a sample of 200 from a city of 50 records takes every record
    args = ["--cities", str(n_cities), "--records", str(n_records)]
    assert main(["synth", "--seed", "6", "--out-dir", str(tmp_path / "cli"), *args]) == 0
    _whole_corpus_files(tmp_path / "whole", 6, n_cities, n_records)
    got, want = ({name: (tmp_path / side / name).read_bytes() for name in SYNTH_FILES} for side in ("cli", "whole"))
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == sorted(SYNTH_FILES)
    assert [name for name in SYNTH_FILES if got[name] != want[name]] == []


def _synth_peak_bytes(out: Path, n_cities: int) -> int:
    """The peak of the memory that Python and numpy allocate during one in-process synth of ``n_cities`` x 2k."""
    tracemalloc.start()
    try:
        assert main(["synth", "--seed", "2", "--out-dir", str(out), "--cities", str(n_cities),
                     "--records", "2000"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_memory_is_one_city_not_the_corpus(tmp_path, monkeypatch):
    # the annotated sample grows with the cities by design, so it is kept small here
    monkeypatch.setattr(synth, "N_ANNOTATED", 5)
    _synth_peak_bytes(tmp_path / "warm", 1)  # first-call caches out of the way
    few, many = (_synth_peak_bytes(tmp_path / str(n), n) for n in (3, 12))
    # holding every city's columns at once, 12 cities peaked at 2.1x of 3 (5.7 MB against 2.7 MB)
    assert many <= 1.3 * few, (few, many)


def test_synth_failing_in_a_city_leaves_the_out_dir_as_it_was(tmp_path, monkeypatch, capsys):
    before = {"manifest.json": b"previous manifest", "annotations.csv": b"previous annotations", "mine.txt": b"mine"}
    for name, content in before.items():
        (tmp_path / name).write_bytes(content)
    real, drawn = synth.gen_corpus, []

    def gen_corpus(spec, city_index):
        drawn.append(city_index)
        if city_index == 2:
            raise SnapGridError(f"city {spec.cities[city_index].city_id}: failed on purpose")
        return real(spec, city_index)

    monkeypatch.setattr(synth, "gen_corpus", gen_corpus)
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


def sample_records(n) -> tuple[list[str], list[str]]:
    """The ids and true labels of ``n`` synthetic records."""
    spec = SynthSpec(
        seed=7,
        cities=(
            CitySynthConfig(
                city_id="ann", tz_id="UTC", origin_lat=0.0, origin_lon=0.0, n_records=n
            ),
        ),
    )
    cols, _ = gen_corpus(spec, 0)
    ends = cols.id_offsets.tolist()
    return [cols.ids[a:b].tobytes().decode() for a, b in zip(ends, ends[1:])], [LABELS[c] for c in cols.label.tolist()]


def test_zero_flip_probability_is_unanimous(monkeypatch):
    monkeypatch.setattr(synth, "FLIP_PROB", 0.0)
    ids, labels = sample_records(50)
    rows = gen_annotations(ids, labels, seed=0)
    matrix = matrix_from_long(rows)
    assert fleiss_kappa(matrix) == 1.0


def test_annotating_a_record_without_a_label_raises():
    ids, labels = sample_records(5)
    with pytest.raises(ValueError, match=f"^record {ids[2]} has no true label to annotate$"):
        gen_annotations(ids, labels[:2] + [None] + labels[3:], seed=0)


def test_adjudication_recovers_truth_under_noise():
    ids, labels = sample_records(5000)
    rows = gen_annotations(ids, labels, seed=0)
    matrix = matrix_from_long(rows)
    adjudicated = {g.item_id: g.label for g in adjudicate(matrix)}
    truth = dict(zip(ids, labels))
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
