"""Record-by-record reference for the column code: what the columns of some records must be.

``columns(recs)`` builds :class:`SnapColumns` from a list of
:class:`SnapRecord` one record at a time, and ``record(obj)`` reads one
JSON object as ``write_snaps`` writes it, so tests can check
``parse_snaps`` and ``cleaned.npz`` against an independent path.
"""

import numpy as np

from snapgrid.geo import GeoPoint
from snapgrid.records import LABELS, SnapColumns, SnapRecord, parse_rfc3339

_UTF8 = ("utf-8", "surrogatepass")


def record(obj: dict) -> SnapRecord:
    """The record that one JSONL object, as ``write_snaps`` writes it, holds."""
    scores = obj.get("frame_scores")
    return SnapRecord(
        id=obj["id"],
        ts_utc=parse_rfc3339(obj["ts_utc"]),
        location=GeoPoint(obj["lat"], obj["lon"]),
        city_id=obj["city_id"],
        duration_s=float(obj.get("duration_s", 0.0)),
        frame_scores=None if scores is None else tuple(map(float, scores)),
        label=obj.get("label"),
        deleted=obj.get("deleted", False),
    )


def columns(recs: list[SnapRecord]) -> SnapColumns:
    """``recs`` as columns in their order, the city table the sorted ids of their cities.

    The table is a str array unless an id ends in NUL, which a str array would drop: then it holds objects.
    """
    cities = sorted({rec.city_id for rec in recs})
    code = {c: i for i, c in enumerate(cities)}
    table = np.array(cities, dtype=str)
    frames = [rec.frame_scores or () for rec in recs]
    return SnapColumns(
        ts=np.array([rec.ts_utc for rec in recs], dtype=np.int64),
        lat=np.array([rec.location.lat for rec in recs], dtype=np.float64),
        lon=np.array([rec.location.lon for rec in recs], dtype=np.float64),
        city=np.array([code[rec.city_id] for rec in recs], dtype=np.int32),
        cities=table if table.tolist() == cities else np.array(cities, dtype=object),
        label=np.array([-1 if rec.label is None else LABELS.index(rec.label) for rec in recs], dtype=np.int8),
        scores=np.array([s for f in frames for s in f], dtype=np.float64),
        score_offsets=np.cumsum([0, *map(len, frames)], dtype=np.int64),
        ids=np.frombuffer("".join(rec.id for rec in recs).encode(*_UTF8), dtype=np.uint8),
        id_offsets=np.cumsum([0, *(len(rec.id.encode(*_UTF8)) for rec in recs)], dtype=np.int64),
        deleted=np.array([rec.deleted for rec in recs], dtype=bool),
    )


def assert_same_columns(got: SnapColumns, want: SnapColumns) -> None:
    """Equal values and dtypes in every column; the city tables are compared as lists of ids."""
    for name, col in vars(want).items():
        if name == "cities":
            assert got.cities.tolist() == col.tolist()
        else:
            other = getattr(got, name)
            assert other.dtype == col.dtype and np.array_equal(other, col), name
