"""Post-record ingest: parsing, serialization, local time, deletions.

Records arrive as JSONL, one object per line, checked into
:class:`SnapRecord` objects; past ingest a corpus travels as
:class:`SnapColumns`. Timestamps are stored internally as UTC epoch
seconds; wall-clock local time is computed on demand from an IANA
timezone identifier, so there is a single temporal source of truth. Post
timestamps are treated as creation time (creation and upload are assumed
to coincide).

Deletion handling is input-driven: records arrive already flagged
``deleted``, and this module only counts and filters them.
"""

from __future__ import annotations

import json
import math
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .errors import ConfigError, SnapGridError
from .geo import GeoPoint

DRIVING = "driving"
NON_DRIVING = "non_driving"
LABELS = (DRIVING, NON_DRIVING)


def parse_rfc3339(text: str) -> int:
    """Parse an RFC-3339 timestamp to UTC epoch seconds."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_rfc3339(ts_utc: int) -> str:
    """Render epoch seconds as a Z-suffixed RFC-3339 string."""
    return datetime.fromtimestamp(ts_utc, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class SnapRecord:
    """One geo-tagged post."""

    id: str
    ts_utc: int
    location: GeoPoint
    city_id: str
    duration_s: float = 0.0
    frame_scores: Optional[tuple[float, ...]] = None
    label: Optional[str] = None
    deleted: bool = False

    def __post_init__(self):
        if not 0 <= self.duration_s < math.inf:  # NaN too, which JSON cannot carry
            raise ValueError(f"duration_s must be finite and nonnegative, got {self.duration_s}")
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        if self.frame_scores is not None:
            if len(self.frame_scores) == 0:
                raise ValueError("frame_scores, when present, must be nonempty")
            for s in self.frame_scores:
                if not 0.0 <= s <= 1.0:
                    raise ValueError(f"frame score {s} outside [0, 1]")


@dataclass(frozen=True)
class ParseFailure:
    line_number: int
    message: str


_STR, _NUMBER = ((str,), "a string"), ((int, float), "a number")
# each field's JSON types; any other fails rather than being coerced: "false" is
# not false, null is not "None", and neither "1.5" nor true is a number
_FIELD_TYPES = {"id": _STR, "city_id": _STR, "deleted": ((bool,), "true or false"), "lat": _NUMBER,
                "lon": _NUMBER, "duration_s": _NUMBER, "frame_scores": ((list, type(None)), "a list")}


def _record_from_dict(obj: dict) -> SnapRecord:
    for key, (kinds, what) in _FIELD_TYPES.items():
        if key in obj and type(obj[key]) not in kinds:
            raise ValueError(f"{key} must be {what}, got {json.dumps(obj[key])}")
    scores = obj.get("frame_scores")
    if scores is not None and not set(map(type, scores)) <= {int, float}:
        raise ValueError(f"frame_scores must be numbers, got {json.dumps(scores)}")
    return SnapRecord(
        id=obj["id"],
        ts_utc=parse_rfc3339(obj["ts_utc"]),
        location=GeoPoint(float(obj["lat"]), float(obj["lon"])),
        city_id=obj["city_id"],
        duration_s=float(obj.get("duration_s", 0.0)),
        frame_scores=tuple(map(float, scores)) if scores is not None else None,
        label=obj.get("label"),
        deleted=obj.get("deleted", False),
    )


def _record_to_dict(rec: SnapRecord) -> dict:
    obj = {
        "id": rec.id,
        "ts_utc": format_rfc3339(rec.ts_utc),
        "lat": rec.location.lat,
        "lon": rec.location.lon,
        "city_id": rec.city_id,
        "duration_s": rec.duration_s,
    }
    if rec.frame_scores is not None:
        obj["frame_scores"] = list(rec.frame_scores)
    if rec.label is not None:
        obj["label"] = rec.label
    if rec.deleted:
        obj["deleted"] = True
    return obj


def parse_snaps(source: Union[str, Path, Iterable[str]]) -> tuple[list[SnapRecord], list[ParseFailure]]:
    """Parse JSONL records from a path or an iterable of lines.

    Valid records come back in input order; each malformed or wrongly typed
    line is reported with its 1-based line number rather than dropped.
    Raises :class:`SnapGridError` when failures outnumber successes; its
    message names the file, when ``source`` is a path, and the first bad line.
    """
    named = isinstance(source, (str, Path))
    records: list[SnapRecord] = []
    failures: list[ParseFailure] = []
    with open(source, newline="") if named else nullcontext(source) as lines:
        for line_number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                records.append(_record_from_dict(json.loads(line)))
            except Exception as exc:
                failures.append(ParseFailure(line_number, str(exc)))
    if failures and len(failures) > len(records):
        where = f"{source}: " if named else ""
        first = failures[0]
        raise SnapGridError(
            f"{where}{len(failures)} of {len(failures) + len(records)} lines failed to parse; "
            f"first at line {first.line_number}: {first.message}"
        )
    return records, failures


def write_snaps(records: Iterable[SnapRecord], path: Union[str, Path]) -> None:
    """Write records to ``path`` as JSONL, one object per line."""
    with open(path, "w", newline="") as fh:
        for rec in records:
            fh.write(json.dumps(_record_to_dict(rec), separators=(",", ":")) + "\n")


@dataclass(frozen=True, eq=False)
class SnapColumns:
    """Records as numpy columns in file order, saved as an uncompressed ``.npz``.

    Frame scores and UTF-8 ids are lists in Arrow's list layout: a flat array and
    ``len + 1`` offsets, record ``i`` holding ``flat[offsets[i]:offsets[i + 1]]``.
    """

    ts: np.ndarray  # UTC epoch seconds
    lat: np.ndarray
    lon: np.ndarray
    city: np.ndarray  # index into cities, the sorted city ids
    cities: np.ndarray
    label: np.ndarray  # index into LABELS, -1 for none
    scores: np.ndarray
    score_offsets: np.ndarray
    ids: np.ndarray
    id_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def scored(self) -> np.ndarray:
        return np.diff(self.score_offsets) > 0

    @classmethod
    def from_records(cls, recs: Sequence[SnapRecord]) -> "SnapColumns":
        cities = sorted({rec.city_id for rec in recs})
        table = np.array(cities, dtype=str)
        if table.tolist() != cities:  # a numpy string drops trailing NULs
            raise SnapGridError(f"city ids {cities!r} do not survive as a string table")
        code = {c: i for i, c in enumerate(cities)}
        frames = [rec.frame_scores or () for rec in recs]
        score_offsets = np.cumsum([0, *map(len, frames)], dtype=np.int64)

        def column(values, dtype):  # without a list of one Python object per record, which ingest's peak would hold
            return np.fromiter(values, dtype=dtype, count=len(recs))

        return cls(
            ts=column((rec.ts_utc for rec in recs), np.int64),
            lat=column((rec.location.lat for rec in recs), np.float64),
            lon=column((rec.location.lon for rec in recs), np.float64),
            city=column((code[rec.city_id] for rec in recs), np.int32),
            cities=table,
            label=column((-1 if rec.label is None else LABELS.index(rec.label) for rec in recs), np.int8),
            scores=np.fromiter(chain.from_iterable(frames), dtype=np.float64, count=score_offsets[-1]),
            score_offsets=score_offsets,
            ids=np.frombuffer("".join(rec.id for rec in recs).encode(*_UTF8), dtype=np.uint8),
            id_offsets=np.cumsum([0, *(len(rec.id.encode(*_UTF8)) for rec in recs)], dtype=np.int64),
        )

    def save(self, path: Union[str, Path]) -> None:
        with open(path, "wb") as fh:  # given a name, np.savez would append ".npz" to it
            np.savez(fh, **vars(self))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SnapColumns":
        """Read what :meth:`save` wrote; ValueError for a damaged file, FileNotFoundError for none."""
        try:
            with np.load(path) as npz:  # allow_pickle=False: an object array fails to load
                cols = cls(**{name: npz[name] for name in _LAYOUT})
        except KeyError as exc:
            raise ValueError(f"a column is missing: {exc}") from exc
        except (TypeError, zipfile.BadZipFile, EOFError) as exc:  # not an archive, or a truncated one
            raise ValueError(f"not a column archive: {exc}") from exc
        n = cols.ts.size  # checked for one dimension below
        for name, (dtype, extra) in _LAYOUT.items():
            col = getattr(cols, name)
            if col.ndim != 1 or (col.dtype.kind != "U" if dtype is str else col.dtype != dtype):
                raise ValueError(f"column {name!r} is not a 1-d {np.dtype(dtype).name} array")
            if extra is not None and len(col) != n + extra:
                raise ValueError(f"column {name!r} has {len(col)} entries for {n} records")
        for name, flat in (("score_offsets", cols.scores), ("id_offsets", cols.ids)):
            offsets = getattr(cols, name)
            if offsets[0] != 0 or (np.diff(offsets) < 0).any() or offsets[-1] != len(flat):
                raise ValueError(f"column {name!r} is not offsets that run from 0 to {len(flat)} and never decrease")
        if n and not (0 <= cols.city.min() and cols.city.max() < len(cols.cities)
                      and -1 <= cols.label.min() and cols.label.max() < len(LABELS)):
            raise ValueError("a city or label code outside its table")
        return cols


_UTF8 = ("utf-8", "surrogatepass")  # a lone surrogate in an id is kept
# each column's dtype and its length: the record count plus 0, plus 1 for offsets, or any (None)
_LAYOUT = {
    "ts": (np.int64, 0), "lat": (np.float64, 0), "lon": (np.float64, 0), "city": (np.int32, 0),
    "cities": (str, None), "label": (np.int8, 0), "scores": (np.float64, None), "score_offsets": (np.int64, 1),
    "ids": (np.uint8, None), "id_offsets": (np.int64, 1),
}


def get_zone(tz_id: str) -> ZoneInfo:
    try:
        return ZoneInfo(tz_id)
    except (ZoneInfoNotFoundError, ValueError, KeyError) as exc:
        raise ConfigError(f"unknown timezone {tz_id!r}") from exc


def to_local_time(ts_utc: int, tz_id: str) -> datetime:
    """Wall-clock local time for a UTC instant, honoring historical DST rules."""
    return datetime.fromtimestamp(ts_utc, tz=get_zone(tz_id))


def filter_active(records: Sequence[SnapRecord]) -> list[SnapRecord]:
    return [rec for rec in records if not rec.deleted]


@dataclass(frozen=True)
class DeletionSummary:
    total: int
    deleted: int

    @property
    def rate_pct(self) -> float:
        return 100.0 * self.deleted / self.total if self.total else 0.0


def deletion_summary(records: Sequence[SnapRecord]) -> DeletionSummary:
    flagged = sum(1 for rec in records if rec.deleted)
    return DeletionSummary(total=len(records), deleted=flagged)
