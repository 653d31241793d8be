"""Record-by-record reference for the column code: what the columns of some records must be.

``columns(recs)`` builds :class:`SnapColumns` from a list of this
module's plain :class:`Record` one record at a time, and ``record(obj)`` reads one
JSON object as ``write_snaps`` writes it, so tests can check
``parse_snaps`` and ``cleaned.npz`` against an independent path.
``gen_corpus(spec)`` is synth's generator one record at a time, every
city of the spec in one list, and ``write_snaps(recs, path)`` writes
records through ``json.dumps``: the reference for ``synth.gen_corpus``,
which draws one city per call, and for ``records.write_snaps``.
"""

import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Optional

import numpy as np

from snapgrid import synth
from snapgrid.geo import METERS_PER_DEG_LAT, build_grid
from snapgrid.records import (
    DRIVING, LABELS, NON_DRIVING, SnapColumns, format_rfc3339, get_zone, parse_rfc3339,
)

_UTF8 = ("utf-8", "surrogatepass")


@dataclass(frozen=True)
class Record:
    """One geo-tagged post as plain fields; nothing is checked."""

    id: str
    ts_utc: int
    lat: float
    lon: float
    city_id: str
    duration_s: float = 0.0
    frame_scores: Optional[tuple[float, ...]] = None
    label: Optional[str] = None
    deleted: bool = False


def record(obj: dict) -> Record:
    """The record that one JSONL object, as ``write_snaps`` writes it, holds."""
    scores = obj.get("frame_scores")
    return Record(
        id=obj["id"],
        ts_utc=parse_rfc3339(obj["ts_utc"]),
        lat=float(obj["lat"]),
        lon=float(obj["lon"]),
        city_id=obj["city_id"],
        duration_s=float(obj.get("duration_s", 0.0)),
        frame_scores=None if scores is None else tuple(map(float, scores)),
        label=obj.get("label"),
        deleted=obj.get("deleted", False),
    )


def columns(recs: list[Record]) -> SnapColumns:
    """``recs`` as columns in their order, the city table the sorted ids of their cities.

    The table is a str array unless an id ends in NUL, which a str array would drop: then it holds objects.
    """
    cities = sorted({rec.city_id for rec in recs})
    code = {c: i for i, c in enumerate(cities)}
    table = np.array(cities, dtype=str)
    frames = [rec.frame_scores or () for rec in recs]
    return SnapColumns(
        ts=np.array([rec.ts_utc for rec in recs], dtype=np.int64),
        lat=np.array([rec.lat for rec in recs], dtype=np.float64),
        lon=np.array([rec.lon for rec in recs], dtype=np.float64),
        city=np.array([code[rec.city_id] for rec in recs], dtype=np.int32),
        cities=table if table.tolist() == cities else np.array(cities, dtype=object),
        label=np.array([-1 if rec.label is None else LABELS.index(rec.label) for rec in recs], dtype=np.int8),
        scores=np.array([s for f in frames for s in f], dtype=np.float64),
        score_offsets=np.cumsum([0, *map(len, frames)], dtype=np.int64),
        ids=np.frombuffer("".join(rec.id for rec in recs).encode(*_UTF8), dtype=np.uint8),
        id_offsets=np.cumsum([0, *(len(rec.id.encode(*_UTF8)) for rec in recs)], dtype=np.int64),
        duration_s=np.array([rec.duration_s for rec in recs], dtype=np.float64),
        deleted=np.array([rec.deleted for rec in recs], dtype=bool),
    )


def assert_same_columns(got: SnapColumns, want: SnapColumns, unstored: bool = False) -> None:
    """Equal values and dtypes in every column; the city tables are compared as lists of ids.

    With ``unstored``, ``got``'s durations must be NaN instead: ``parse_snaps``, ``filter_active`` and
    ``SnapColumns.load`` keep none.
    """
    for name, col in vars(want).items():
        other = getattr(got, name)
        if name == "cities":
            assert other.tolist() == col.tolist()
        elif unstored and name == "duration_s":
            assert other.dtype == col.dtype and len(other) == len(col) and np.isnan(other).all()
        else:
            assert other.dtype == col.dtype and np.array_equal(other, col), name


def _gen_city(cfg, city_index, spec) -> list[Record]:
    """One city's records as synth's generator draws them: its arrays, then one record and its Beta draws at a time."""
    rng = synth.city_rng(spec.seed, city_index)
    grid = build_grid(synth.city_region(cfg, spec.tile_size_m), spec.tile_size_m)
    origin_lat, origin_lon = grid.origin_lat, grid.origin_lon

    n = cfg.n_records
    n_tiles = grid.n_rows * grid.n_cols
    probs = synth._tile_weights(cfg, n_tiles, rng)
    n_driving = int(round(n * cfg.driving_fraction))
    per_tile_driving = synth._largest_remainder(probs * n_driving, n_driving)
    per_tile_other = synth._largest_remainder(probs * (n - n_driving), n - n_driving)
    tile_flat = np.repeat(np.arange(n_tiles), per_tile_driving + per_tile_other)
    driving = np.zeros(n, dtype=bool)
    pos = 0
    for t in range(n_tiles):
        driving[pos : pos + per_tile_driving[t]] = True
        pos += per_tile_driving[t] + per_tile_other[t]
    order = rng.permutation(n)
    tile_flat = tile_flat[order]
    driving = driving[order]

    frac_x = rng.random(n)
    frac_y = rng.random(n)
    days = rng.integers(0, spec.n_days, size=n)
    hours = rng.choice(24, size=n, p=synth._hour_weights(cfg.night_uplift_factor))
    minutes = rng.integers(0, 60, size=n)
    seconds = rng.integers(0, 60, size=n)
    lo, hi = spec.duration_range
    durations = rng.uniform(lo, hi, size=n)
    deleted = rng.random(n) < cfg.deleted_fraction

    zone = get_zone(cfg.tz_id)
    day0 = date.fromisoformat(spec.start_date)
    base = datetime(day0.year, day0.month, day0.day, tzinfo=zone)
    mdeg_lat = METERS_PER_DEG_LAT
    mdeg_lon = METERS_PER_DEG_LAT * math.cos(math.radians(origin_lat))

    records = []
    for i in range(n):
        row, col = divmod(int(tile_flat[i]), grid.n_cols)
        x = (col + frac_x[i]) * spec.tile_size_m
        y = (row + frac_y[i]) * spec.tile_size_m
        dt = base + timedelta(
            days=int(days[i]), hours=int(hours[i]), minutes=int(minutes[i]), seconds=int(seconds[i])
        )
        duration = float(durations[i])
        n_frames = max(1, int(duration))
        if driving[i]:
            scores = rng.beta(8.0, 2.0, size=n_frames)
        else:
            scores = rng.beta(2.0, 8.0, size=n_frames)
        records.append(
            Record(
                id=f"{cfg.city_id}-{i:06d}",
                ts_utc=int(dt.timestamp()),
                lat=float(origin_lat + y / mdeg_lat),
                lon=float(origin_lon + x / mdeg_lon),
                city_id=cfg.city_id,
                duration_s=duration,
                frame_scores=tuple(float(s) for s in scores),
                label=DRIVING if driving[i] else NON_DRIVING,
                deleted=bool(deleted[i]),
            )
        )
    return records


def gen_corpus(spec) -> list[Record]:
    """All cities' records in city order; city ``i``'s are the records ``synth.gen_corpus(spec, i)`` must give."""
    return [rec for i, cfg in enumerate(spec.cities) for rec in _gen_city(cfg, i, spec)]


def _record_to_dict(rec: Record) -> dict:
    """``rec`` as one JSON object; no frame scores, no label and not deleted are left out."""
    obj = {"id": rec.id, "ts_utc": format_rfc3339(rec.ts_utc), "lat": rec.lat, "lon": rec.lon,
           "city_id": rec.city_id, "duration_s": rec.duration_s, "frame_scores": rec.frame_scores, "label": rec.label,
           "deleted": rec.deleted or None}  # json writes the scores' tuple as a list
    return {key: value for key, value in obj.items() if value is not None}


def write_snaps(recs, path) -> None:
    """``recs`` as JSONL, one ``json.dumps`` object per line, as ``records.write_snaps`` must write them."""
    with open(path, "w", newline="") as fh:
        for rec in recs:
            fh.write(json.dumps(_record_to_dict(rec), separators=(",", ":")) + "\n")
