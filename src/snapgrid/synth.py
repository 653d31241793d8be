"""Synthetic corpus generation with known planted ground truth.

Every quantity the analysis pipeline estimates is planted here explicitly:
per-tile intensity comes from a chosen distribution family, timestamps get
a configurable night uplift over fixed-offset timezones, frame scores are
Beta(8,2) for driving clips and Beta(2,8) otherwise (about a 2% per-frame
error at the 0.5 cutoff), and city-level demographics follow a linear
model with known coefficients. The generator is fully deterministic: city
``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``, so adding or
reordering cities never perturbs the others, and ``gen_corpus`` draws one
city per call (``snapgrid synth`` writes each before it draws the next).
Records come back as :class:`~snapgrid.records.SnapColumns`, drawn exactly
as the one-at-a-time generator in ``tests/record_oracle.py`` draws them, to
the last bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from datetime import date, datetime, time, timedelta
from typing import Optional, Sequence

import numpy as np

from .annotation import N_RATERS
from .geo import TILE_SIZE_M, Region, TileGrid, build_grid, unproject
from .records import DRIVING, LABELS, NON_DRIVING, SnapColumns, get_zone
from .regression import DESIGN_TERMS, CityStats
from .temporal import HOURS_PER_WEEK, NightWindow

# Coefficients planted for regression recovery, aligned with DESIGN_TERMS.
# The intercept sits high enough that ln(driving+1) stays positive across
# the whole covariate box.
PLANTED_COEFS = (-2.0, 0.05, 5.85, 1.92, 2.38, 0.19, -0.21, 1.21)

# Observed covariate ranges the synthetic cities are drawn from.
COVARIATE_RANGES = {
    "log_pop": (12.35, 17.19),
    "age_lt20_pct": (15.0, 46.7),
    "age_20_40_pct": (19.4, 58.3),
    "age_40_60_pct": (14.1, 60.5),
    "male_frac": (0.458, 0.756),
    "log_total_snaps": (5.412, 13.813),
}

# Site table for default synthetic cities: (lat, lon, fixed-offset zone).
# Etc/GMT zones invert the sign: Etc/GMT-3 is UTC+3.
_CITY_SITES = (
    (40.7, -74.0, "Etc/GMT+5"),
    (51.5, -0.1, "Etc/GMT"),
    (35.7, 139.7, "Etc/GMT-9"),
    (-23.5, -46.6, "Etc/GMT+3"),
    (19.4, -99.1, "Etc/GMT+6"),
    (55.8, 37.6, "Etc/GMT-3"),
    (28.6, 77.2, "Etc/GMT-5"),
    (-33.9, 151.2, "Etc/GMT-10"),
    (30.0, 31.2, "Etc/GMT-2"),
    (1.35, 103.8, "Etc/GMT-8"),
    (48.9, 2.35, "Etc/GMT-1"),
    (-34.6, -58.4, "Etc/GMT+3"),
)


@dataclass(frozen=True)
class CitySynthConfig:
    city_id: str
    tz_id: str
    origin_lat: float
    origin_lon: float
    n_records: int
    n_rows: int = 10
    n_cols: int = 10
    family: str = "power_law"
    family_params: dict = field(default_factory=lambda: {"alpha": 2.5, "x_min": 1.0})
    driving_fraction: float = 0.2356
    night_uplift_factor: float = 1.75
    deleted_fraction: float = 0.0298


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    cities: tuple[CitySynthConfig, ...]
    start_date: str = "2025-03-03"  # a Monday, local in every city
    n_days: int = 28
    duration_range: tuple[float, float] = (3.0, 10.0)
    tile_size_m: float = TILE_SIZE_M


# The default corpus size; `snapgrid synth` takes its defaults from here too.
N_CITIES = 10
N_RECORDS = 30_000


def default_spec(seed: int, n_cities: int = N_CITIES, n_records: int = N_RECORDS) -> SynthSpec:
    """A ready-made corpus: power-law tiles everywhere, alpha varying by city."""
    cities = []
    for i in range(n_cities):
        lat, lon, tz = _CITY_SITES[i % len(_CITY_SITES)]
        cities.append(
            CitySynthConfig(
                city_id=f"city{i:02d}",
                tz_id=tz,
                origin_lat=lat,
                origin_lon=lon,
                n_records=n_records,
                family_params={"alpha": 2.2 + 0.06 * i, "x_min": 1.0},
            )
        )
    return SynthSpec(seed=seed, cities=tuple(cities))


def city_region(cfg: CitySynthConfig, tile_size_m: float = TILE_SIZE_M) -> Region:
    """Bounding box spanning exactly the configured tile layout."""
    north, east = unproject(cfg.n_cols * tile_size_m, cfg.n_rows * tile_size_m, cfg.origin_lat, cfg.origin_lon)
    return Region.from_bbox(cfg.origin_lat, cfg.origin_lon, north, east)


def city_rng(seed: int, city_index: int) -> np.random.Generator:
    """Independent per-city stream; stable under city addition or reordering."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(city_index,)))


def sample_family(family: str, params: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values from one of the four fit families."""
    if family == "exponential":
        return rng.exponential(scale=1.0 / params["lam"], size=n)
    if family == "normal":
        return rng.normal(params["mu"], params["sigma"], size=n)
    if family == "log_normal":
        return rng.lognormal(params["mu_log"], params["sigma_log"], size=n)
    if family == "power_law":
        u = rng.random(n)
        return params["x_min"] * u ** (-1.0 / (params["alpha"] - 1.0))
    raise ValueError(f"unknown family {family!r}")


def _tile_weights(cfg: CitySynthConfig, n_tiles: int, rng: np.random.Generator) -> np.ndarray:
    w = sample_family(cfg.family, cfg.family_params, n_tiles, rng)
    w = np.clip(w, 0.0, None)
    if w.sum() == 0:
        w = np.ones(n_tiles)
    return w / w.sum()


def _largest_remainder(raw: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative quotas to integers that sum exactly to total."""
    base = np.floor(raw).astype(np.int64)
    order = np.argsort(-(raw - base))
    base[order[: total - base.sum()]] += 1
    return base


def _hour_weights(factor: float) -> np.ndarray:
    """Hour-of-day weights: hours in the default night window weigh ``factor``."""
    w = np.array([factor if NightWindow().contains(h) else 1.0 for h in range(24)])
    return w / w.sum()


def gen_corpus(spec: SynthSpec, city_index: int) -> tuple[SnapColumns, TileGrid]:
    """The records of ``spec.cities[city_index]`` against its grid, with planted labels, as columns in id order,
    and the grid. A city draws the same records whichever others the spec holds."""
    cfg = spec.cities[city_index]
    rng = city_rng(spec.seed, city_index)
    grid = build_grid(city_region(cfg, spec.tile_size_m), spec.tile_size_m)

    n = cfg.n_records
    n_tiles = grid.n_rows * grid.n_cols
    probs = _tile_weights(cfg, n_tiles, rng)

    # Both label classes follow the planted tile intensity exactly (largest-
    # remainder quotas), so per-tile driving counts are a faithful sample of
    # the configured family rather than that family blurred by multinomial
    # noise. A final shuffle hides the tile-major construction order.
    n_driving = int(round(n * cfg.driving_fraction))
    per_tile_driving = _largest_remainder(probs * n_driving, n_driving)
    per_tile_other = _largest_remainder(probs * (n - n_driving), n - n_driving)
    tile_flat = np.repeat(np.arange(n_tiles), per_tile_driving + per_tile_other)
    driving = np.repeat(np.tile([True, False], n_tiles), np.column_stack((per_tile_driving, per_tile_other)).ravel())
    order = rng.permutation(n)
    tile_flat = tile_flat[order]
    driving = driving[order]

    frac_x = rng.random(n)
    frac_y = rng.random(n)
    days = rng.integers(0, spec.n_days, size=n)
    hours = rng.choice(24, size=n, p=_hour_weights(cfg.night_uplift_factor))
    minutes = rng.integers(0, 60, size=n)
    seconds = rng.integers(0, 60, size=n)
    lo, hi = spec.duration_range
    durations = rng.uniform(lo, hi, size=n)
    deleted = rng.random(n) < cfg.deleted_fraction

    row, col = np.divmod(tile_flat, grid.n_cols)
    lat, lon = unproject((col + frac_x) * spec.tile_size_m, (row + frac_y) * spec.tile_size_m,
                         grid.origin_lat, grid.origin_lon)

    base = datetime.combine(date.fromisoformat(spec.start_date), time(), get_zone(cfg.tz_id))  # local midnight

    def wall(d: int, h: int, m: int = 0, s: int = 0) -> int:  # epoch seconds of the local wall time base + d h:m:s
        return int((base + timedelta(days=d, hours=h, minutes=m, seconds=s)).timestamp())

    # one wall() per local (day, hour), and one per record in an hour whose :59:59 is not 3599 s after its :00
    keys, key = np.unique(days * 24 + hours, return_inverse=True)
    starts = np.array([wall(*divmod(int(k), 24)) for k in keys], dtype=np.int64)
    steady = np.array([wall(*divmod(int(k), 24), 59, 59) for k in keys], dtype=np.int64) - starts == 3599
    ts = starts[key] + 60 * minutes + seconds
    for i in np.flatnonzero(~steady[key]):
        ts[i] = wall(int(days[i]), int(hours[i]), int(minutes[i]), int(seconds[i]))

    # every frame's score in one call, drawn in the order of a Beta(8, 2) or Beta(2, 8) call per record
    n_frames = np.maximum(1, durations.astype(np.int64))
    scores = rng.beta(*(np.repeat(np.where(driving, a, b), n_frames) for a, b in ((8.0, 2.0), (2.0, 8.0))))
    if not (((-90 <= lat) & (lat <= 90) & (-180 <= lon) & (lon <= 180)).all()
            and ((0 <= durations) & (durations < math.inf)).all() and ((0 <= scores) & (scores <= 1)).all()):
        raise ValueError(f"city {cfg.city_id}: a position, duration or frame score is out of range")

    ids = [f"{cfg.city_id}-{i:06d}".encode("utf-8", "surrogatepass") for i in range(n)]
    return SnapColumns(
        ts=ts, lat=lat, lon=lon, city=np.zeros(n, dtype=np.int32), cities=np.array([cfg.city_id], dtype=object),
        label=np.where(driving, LABELS.index(DRIVING), LABELS.index(NON_DRIVING)).astype(np.int8), scores=scores,
        score_offsets=np.concatenate(([0], np.cumsum(n_frames))), ids=np.frombuffer(b"".join(ids), dtype=np.uint8),
        id_offsets=np.cumsum([0, *map(len, ids)], dtype=np.int64), duration_s=durations, deleted=deleted,
    ), grid


def gen_annotations(
    ids: Sequence[str],
    labels: Sequence[Optional[str]],
    flip_prob: float,
    seed: int,
) -> list[tuple[str, str, str]]:
    """Simulated rater judgments of items ``ids`` whose true labels are ``labels``: each of N_RATERS raters flips
    the true label with flip_prob.

    Returns long-format rows (item_id, rater_id, category).
    """
    if not 0.0 <= flip_prob < 0.5:
        raise ValueError(f"flip_prob {flip_prob} outside [0, 0.5)")
    rng = np.random.default_rng(seed)
    rows = []
    for item, label in zip(ids, labels, strict=True):
        if label is None:
            raise ValueError(f"record {item} has no true label to annotate")
        for r in range(N_RATERS):
            flip = rng.random() < flip_prob
            if flip:
                category = NON_DRIVING if label == DRIVING else DRIVING
            else:
                category = label
            rows.append((item, f"rater{r}", category))
    return rows


def gen_regression_cities(
    n_cities: int = 130,
    seed: int = 0,
    noise_sigma: float = 0.0,
) -> list[CityStats]:
    """Cities whose ln(driving+1) follows the planted linear model exactly
    (plus optional gaussian noise), with covariates drawn uniformly from
    the observed ranges. Counts stay as floats so the zero-noise model is
    recoverable to machine precision.
    """
    rng = np.random.default_rng(seed)
    r = COVARIATE_RANGES
    cities = []
    for i in range(n_cities):
        log_pop = rng.uniform(*r["log_pop"])
        male_frac = rng.uniform(*r["male_frac"])
        age_lt20 = rng.uniform(*r["age_lt20_pct"])
        age_20_40 = rng.uniform(*r["age_20_40_pct"])
        age_40_60 = rng.uniform(*r["age_40_60_pct"])
        log_ts = rng.uniform(*r["log_total_snaps"])
        developing = bool(rng.integers(0, 2))
        x = np.array(
            [
                1.0,
                male_frac * 100.0,
                age_lt20 / 100.0,
                age_20_40 / 100.0,
                age_40_60 / 100.0,
                1.0 if developing else 0.0,
                log_pop,
                log_ts,
            ]
        )
        y = float(x @ np.asarray(PLANTED_COEFS, dtype=float))
        if noise_sigma > 0:
            y += rng.normal(0.0, noise_sigma)
        cities.append(
            CityStats(
                city_id=f"rc{i:03d}",
                total_snaps=math.exp(log_ts) - 1.0,
                driving_snaps=math.exp(y) - 1.0,
                population=math.exp(log_pop) - 1.0,
                male_pct=male_frac * 100.0,
                age_lt20_pct=age_lt20,
                age_20_40_pct=age_20_40,
                age_40_60_pct=age_40_60,
                developing=developing,
            )
        )
    return cities


def gen_planted_week_vectors(
    n_cities: int = 30,
    k: int = 3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Hour-of-week fraction vectors around k well-separated archetypes.

    Archetypes differ in daily shape (commute peaks, night life, flat) and
    weekend emphasis; rows are multiplicative-noised then renormalized.
    Returns (matrix, true_labels) with cities assigned round-robin.
    """
    hours = np.arange(24)

    def day_shape(kind: int) -> np.ndarray:
        if kind == 0:  # twin commute peaks
            return 1.0 + 2.5 * np.exp(-0.5 * ((hours - 8) / 1.5) ** 2) + 2.5 * np.exp(
                -0.5 * ((hours - 17) / 1.5) ** 2
            )
        if kind == 1:  # evening/night heavy
            return 1.0 + 3.5 * np.exp(-0.5 * ((hours - 22) / 2.0) ** 2) + 1.5 * np.exp(
                -0.5 * (hours / 2.0) ** 2
            )
        # daytime plateau
        return 1.0 + 2.0 * (np.abs(hours - 13) < 5)

    archetypes = []
    for kind in range(k):
        weekday = day_shape(kind % 3)
        weekend_boost = (1.0, 2.2, 0.6)[kind % 3]
        week = np.concatenate([weekday] * 5 + [weekday * weekend_boost] * 2)
        archetypes.append(week / week.sum())

    rng = np.random.default_rng(seed)
    labels = np.arange(n_cities) % k
    rows = []
    for lab in labels:
        noisy = archetypes[lab] * rng.lognormal(0.0, 0.15, size=HOURS_PER_WEEK)
        rows.append(noisy / noisy.sum())
    return np.vstack(rows), labels


def build_manifest(spec: SynthSpec, regression_sigma: float) -> dict:
    """Planted ground truth for a generated corpus, JSON-serializable."""
    return {
        "seed": spec.seed,
        "start_date": spec.start_date,
        "n_days": spec.n_days,
        "tile_size_m": spec.tile_size_m,
        "duration_range": list(spec.duration_range),
        "cities": {cfg.city_id: asdict(cfg) for cfg in spec.cities},
        "regression": {
            "coefs": dict(zip(DESIGN_TERMS, PLANTED_COEFS)),
            "seed": spec.seed,
            "noise_sigma": regression_sigma,
        },
    }


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
