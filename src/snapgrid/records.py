"""Post-record ingest: parsing, serialization, local time, deletions.

Records arrive as JSONL, one object per line with the keys ``id, ts_utc, lat,
lon, city_id, duration_s, frame_scores, label, deleted``, which :func:`parse_snaps`
checks and decodes straight into :class:`SnapColumns`, and which :func:`write_snaps`
writes back in that order. Timestamps are stored
internally as UTC epoch seconds; wall-clock local time is computed on
demand from an IANA timezone identifier, so there is a single temporal
source of truth. Post timestamps are treated as creation time (creation
and upload are assumed to coincide).

Deletion handling is input-driven: records arrive already flagged
``deleted``, and :func:`filter_active` drops them.
"""

from __future__ import annotations

import json
import math
import re
import zipfile
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Optional, Union
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .errors import ConfigError, SnapGridError
from .geo import check_point

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
class ParseFailure:
    line_number: int
    message: str


_STR, _NUMBER = ((str,), "a string"), ((int, float), "a number")
# each field's JSON types; any other fails rather than being coerced: "false" is
# not false, null is not "None", and neither "1.5" nor true is a number
_FIELD_TYPES = {"id": _STR, "ts_utc": _STR, "city_id": _STR, "deleted": ((bool,), "true or false"), "lat": _NUMBER,
                "lon": _NUMBER, "duration_s": _NUMBER, "frame_scores": ((list, type(None)), "a list")}
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # what surrogateescape decodes a byte that is not UTF-8 to


def _fields(line: str, codes: dict[str, int]) -> tuple[tuple, Optional[list[float]], str]:
    """One JSONL line, checked: (ts, lat, lon, city code in ``codes``, label code, deleted), scores, id.

    The duration is checked, not returned: no stage reads one."""
    if not line.isascii() and _NOT_UTF8.search(line):
        raise ValueError("line is not UTF-8")
    obj = json.loads(line)
    if type(obj) is not dict:
        raise ValueError("not a JSON object")
    for key, (kinds, what) in _FIELD_TYPES.items():
        if key in obj and type(obj[key]) not in kinds:
            raise ValueError(f"{key} must be {what}, got {json.dumps(obj[key])}")
    if not set(map(type, obj.get("frame_scores") or ())) <= {int, float}:
        raise ValueError(f"frame_scores must be numbers, got {json.dumps(obj['frame_scores'])}")
    for key in ("id", "ts_utc", "lat", "lon", "city_id"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    ts, (lat, lon), label = parse_rfc3339(obj["ts_utc"]), check_point(obj["lat"], obj["lon"]), obj.get("label")
    # the scores as a list, not a tuple: a tuple freed here would stay cached in CPython's tuple free lists
    duration_s, scores = float(obj.get("duration_s", 0.0)), obj.get("frame_scores")
    scores = None if scores is None else list(map(float, scores))
    if not 0 <= duration_s < math.inf:  # NaN too, which JSON cannot carry
        raise ValueError(f"duration_s must be finite and nonnegative, got {duration_s}")
    if label is not None and label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {label!r}")
    if scores is not None and len(scores) == 0:
        raise ValueError("frame_scores, when present, must be nonempty")
    for s in scores or ():
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"frame score {s} outside [0, 1]")
    city, code = codes.setdefault(obj["city_id"], len(codes)), -1 if label is None else LABELS.index(label)
    return (ts, lat, lon, city, code, obj.get("deleted", False)), scores, obj["id"]


def parse_snaps(source: Union[str, Path, Iterable[str]]) -> tuple["SnapColumns", list[ParseFailure]]:
    """Decode JSONL records from a path or an iterable of lines straight into columns.

    Each non-blank line that passes the checks is one record, in input order, deleted or not, and the city table
    holds each city id as parsed (see :func:`filter_active`); each other line, one that is not UTF-8 too, is a
    failure with its 1-based line number. Raises :class:`SnapGridError` naming the file (when ``source`` is a
    path) and the first bad line when failures outnumber successes.
    """
    named = isinstance(source, (str, Path))
    per_record = ts, lat, lon, city, label, deleted = tuple(map(array, "qddibb"))  # int64, float64, float64, int32...
    scores, ids, score_ends, id_ends = array("d"), bytearray(), array("q", [0]), array("q", [0])
    codes: dict[str, int] = {}  # city id -> its code, in order of first appearance
    failures: list[ParseFailure] = []
    with open(source, newline="", encoding="utf-8", errors="surrogateescape") if named else nullcontext(source) as lines:
        for line_number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                values, frames, id_ = _fields(line, codes)
            except Exception as exc:
                failures.append(ParseFailure(line_number, str(exc)))
                continue
            for column, value in zip(per_record, values):
                column.append(value)
            scores.extend(frames or ())
            score_ends.append(len(scores))
            ids += id_.encode(*_UTF8)
            id_ends.append(len(ids))
    if len(failures) > len(ts):
        raise SnapGridError(f"{f'{source}: ' if named else ''}{len(failures)} of {len(failures) + len(ts)} lines "
                            f"failed to parse; first at line {failures[0].line_number}: {failures[0].message}")
    table = sorted(codes)
    rank = {c: i for i, c in enumerate(table)}
    return SnapColumns(
        ts=np.frombuffer(ts, dtype=np.int64), lat=np.frombuffer(lat), lon=np.frombuffer(lon),
        city=np.array([rank[c] for c in codes], dtype=np.int32)[np.frombuffer(city, dtype=np.intc)],
        cities=np.array(table, dtype=object), label=np.frombuffer(label, dtype=np.int8), scores=np.frombuffer(scores),
        score_offsets=np.frombuffer(score_ends, dtype=np.int64), ids=np.frombuffer(ids, dtype=np.uint8),
        id_offsets=np.frombuffer(id_ends, dtype=np.int64), duration_s=np.broadcast_to(np.nan, len(ts)),
        deleted=np.frombuffer(deleted, dtype=bool)), failures


def write_snaps(parts: Iterable["SnapColumns"], path: Union[str, Path]) -> None:
    """Write the records of each of ``parts``, in turn, to ``path`` as JSONL, one object per line, in their order: the
    text of ``json.dumps(obj, separators=(",", ":"))``, ``repr`` of each float and ``json``'s ASCII escaping of each
    string, keys in the order ``id, ts_utc, lat, lon, city_id, duration_s, frame_scores, label, deleted``, and no frame
    scores, no label and not deleted left out.

    Each part is let go before the next is taken, so a generator of parts is written holding one at a time."""
    labels, deleted_text = ("", *(f',"label":"{label}"' for label in LABELS)), ("", ',"deleted":true')
    hours: dict[int, str] = {}  # UTC hour -> its "YYYY-MM-DDTHH:", shared by all the parts
    with open(path, "w", newline="") as fh:
        for cols in parts:
            cities = [encode_basestring_ascii(c) for c in cols.cities.tolist()]
            for a in range(0, len(cols), _CHUNK):
                (s0, i0), lines = (cols.score_offsets[a], cols.id_offsets[a]), []
                ends = (cols.score_offsets[a:a + _CHUNK + 1] - s0).tolist()  # record k: frames[ends[k]:ends[k+1]]
                id_ends = (cols.id_offsets[a:a + _CHUNK + 1] - i0).tolist()
                frames = list(map(repr, cols.scores[s0:][:ends[-1]].tolist()))
                ids = cols.ids[i0:][:id_ends[-1]].tobytes()
                values = [getattr(cols, name)[a:a + _CHUNK].tolist() for name in _WRITTEN]
                values += [ends, ends[1:], id_ends, id_ends[1:]]
                for ts, lat, lon, city, duration, label, deleted, s, e, i, j in zip(*values):
                    hour, second = divmod(ts, 3600)
                    if hour not in hours:
                        hours[hour] = format_rfc3339(hour * 3600)[:-6]
                    scores = f',"frame_scores":[{",".join(frames[s:e])}]' if e > s else ""
                    lines.append(f'{{"id":{encode_basestring_ascii(ids[i:j].decode(*_UTF8))},"ts_utc":"{hours[hour]}'
                                 f'{second // 60:02d}:{second % 60:02d}Z","lat":{lat!r},"lon":{lon!r},"city_id":'
                                 f'{cities[city]},"duration_s":{duration!r}{scores}{labels[label + 1]}'
                                 f'{deleted_text[deleted]}}}\n')
                fh.write("".join(lines))
            del cols  # before the next part is drawn


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
    cities: np.ndarray  # str, or object as parsed: a str array would drop a trailing NUL
    label: np.ndarray  # index into LABELS, -1 for none
    scores: np.ndarray
    score_offsets: np.ndarray
    ids: np.ndarray
    id_offsets: np.ndarray
    # in memory only, both left out by save: no stage reads a duration, and cleaned.npz holds no deleted record
    duration_s: np.ndarray  # synth's; parse_snaps, filter_active and load give a read-only view of one NaN
    deleted: np.ndarray  # bool; filter_active and load give a read-only view of one false

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def scored(self) -> np.ndarray:
        return np.diff(self.score_offsets) > 0

    def save(self, path: Union[str, Path]) -> None:
        with open(path, "wb") as fh:  # given a name, np.savez would append ".npz" to it
            np.savez(fh, **{name: getattr(self, name) for name in _LAYOUT})

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SnapColumns":
        """Read what :meth:`save` wrote; ValueError for a damaged file, FileNotFoundError for none."""
        try:
            with np.load(path) as npz:  # allow_pickle=False: an object array fails to load
                arrays = {name: npz[name] for name in _LAYOUT}
        except KeyError as exc:
            raise ValueError(f"a column is missing: {exc}") from exc
        except (TypeError, zipfile.BadZipFile, EOFError) as exc:  # not an archive, or a truncated one
            raise ValueError(f"not a column archive: {exc}") from exc
        n = arrays["ts"].size  # checked for one dimension below
        cols = cls(**arrays, duration_s=np.broadcast_to(np.nan, n), deleted=np.broadcast_to(False, n))
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
_CHUNK = 1024  # records that write_snaps formats at a time
_WRITTEN = ("ts", "lat", "lon", "city", "duration_s", "label", "deleted")  # write_snaps' per-record columns
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


def filter_active(cols: SnapColumns, rows: np.ndarray) -> SnapColumns:
    """The records where ``rows`` is true that are not flagged deleted, with a string table of only their cities.

    Only the columns that :meth:`SnapColumns.save` stores are gathered; the durations are NaN, as ``load`` gives.
    """
    rows = rows & ~cols.deleted
    used, city = np.unique(cols.city[rows], return_inverse=True)
    cities = cols.cities[used].tolist()
    table = np.array(cities, dtype=str)
    if table.tolist() != cities:  # a numpy string drops trailing NULs
        raise SnapGridError(f"city ids {cities!r} do not survive as a string table")
    lists = {}
    for flat, ends in (("scores", "score_offsets"), ("ids", "id_offsets")):
        lengths = np.diff(getattr(cols, ends))
        lists[flat] = getattr(cols, flat)[np.repeat(rows, lengths)]
        lists[ends] = np.concatenate(([0], np.cumsum(lengths[rows])))
    kept = {name: getattr(cols, name)[rows] for name in ("ts", "lat", "lon", "label")}
    n = len(kept["ts"])
    return SnapColumns(**kept, city=city.astype(np.int32), cities=table, **lists, duration_s=np.broadcast_to(np.nan, n),
                       deleted=np.broadcast_to(False, n))
