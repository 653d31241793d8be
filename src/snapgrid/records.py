"""Post-record ingest: parsing, serialization, local time, deletions.

Records arrive as JSONL, one object per line with the keys ``id, ts_utc, lat,
lon, city_id, duration_s, frame_scores, label, deleted``, which :func:`parse_snaps`
checks and decodes straight into :class:`SnapColumns`, and which :func:`write_snaps`
writes back in that order. ``parse_snaps`` checks in bulk and explains per line:
it decodes a chunk of lines into lists of plain values, checks the types, ranges,
labels and timestamps of the whole chunk at once, and runs each line that a check
flags through ``_fields``, the record-by-record check that words every failure.
Timestamps are stored
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
from itertools import compress, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Union
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


def _fields(line: str) -> None:
    """Check one JSONL line as a record: raise for its first fault, or return if it has none.

    The one source of parse failure messages, and the reference that the checks in bulk are tested against."""
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
    parse_rfc3339(obj["ts_utc"])
    check_point(obj["lat"], obj["lon"])
    duration_s, scores, label = float(obj.get("duration_s", 0.0)), obj.get("frame_scores"), obj.get("label")
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


_CHUNK_LINES = 2048  # lines that parse_snaps checks at a time: more hold more memory, fewer cost more calls
# json.loads(line) is raw_decode(line) with JSON's whitespace allowed around the value; a line that raw_decode
# rejects is decoded again from its first character that is not JSON whitespace, as json.loads would
_DECODER, _JSON_SPACE = json.JSONDecoder(), " \t\n\r"
# a record's fields other than its frame scores, in the order _in_bulk keeps them; the last three are numbers
_KEYS = ("id", "ts_utc", "city_id", "deleted", "label", "lat", "lon", "duration_s")
_KINDS = ({str}, {str}, {str}, {bool}, {str, type(None)})  # the others' JSON types; a label of another type fails
_ABSENT = object()  # of no JSON type: a required field's value when left out
_DEFAULTS = (_ABSENT, _ABSENT, _ABSENT, False, None, _ABSENT, _ABSENT, 0.0)
_STAND_IN = ("", "1970-01-01T00:00:00Z", "", False, None, 0, 0, 0)  # a flagged line's: passes every check, is dropped
_REAL = set(_NUMBER[0])
_FLOAT_END = 2**1024 - 2**970  # the least int that float() refuses: it rounds up (ties to even) past the largest float
_LABEL_CODES = {None: -1, **{label: code for code, label in enumerate(LABELS)}}
_SYNTH_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_DIGITS = _SYNTH_STAMP == ord("0")  # where synth's form has a digit


def _epoch_seconds(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each timestamp's UTC epoch seconds as :func:`parse_rfc3339` gives them, and whether it accepts the timestamp.

    Synth's form, ``YYYY-MM-DDTHH:MM:SSZ`` in ASCII digits with a year from 0001, is parsed by numpy in one call,
    which rejects the dates and times that ``datetime`` rejects; any other text goes to parse_rfc3339 on its own, and
    so does all of synth's form when numpy rejects one of it."""
    n, width = len(stamps), len(_SYNTH_STAMP)
    seconds, parsed = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    sized = np.fromiter(map(len, stamps), dtype=np.int64, count=n) == width
    # one byte per character, a "?" for any that is not ASCII
    chars = np.frombuffer("".join(compress(stamps, sized)).encode("ascii", "replace"), dtype=np.uint8)
    chars = chars.reshape(-1, width)
    synth_form = ((chars[:, _DIGITS] - ord("0") < 10).all(axis=1)
                  & (chars[:, ~_DIGITS] == _SYNTH_STAMP[~_DIGITS]).all(axis=1) & (chars[:, :4] != ord("0")).any(axis=1))
    rows = np.flatnonzero(sized)[synth_form]
    try:
        text = chars[synth_form, :-1].view(f"S{width - 1}")[:, 0]  # without the Z, which numpy would warn about
        seconds[rows] = np.array(text, dtype="datetime64[s]").view(np.int64)
        parsed[rows] = True
    except ValueError:  # a date or time out of range, to be found below
        pass
    for i in np.flatnonzero(~parsed).tolist():
        try:
            seconds[i], parsed[i] = parse_rfc3339(stamps[i]), True
        except ValueError:
            pass
    return seconds, parsed


def _typed(values: list, kinds: set, stand_in, bad: np.ndarray, owner: np.ndarray) -> list:
    """``values`` with each one not of ``kinds`` replaced by ``stand_in``, and its line, ``owner[i]`` for value ``i``,
    flagged in ``bad``."""
    if set(map(type, values)) <= kinds:
        return values
    wrong = [type(v) not in kinds for v in values]
    bad[owner[wrong]] = True
    return [stand_in if w else v for v, w in zip(values, wrong)]


def _floats(values: list, bad: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """``values`` as float64, each one not an int or a float, or too large for a float, read as 0 and its line flagged.

    ``array("d")`` takes ints, floats and bools, and raises OverflowError for an int too large for a float, as
    ``float`` does. It reads a bool as 0.0 or 1.0, so only the values equal to those have their type looked at."""
    try:
        floats = np.frombuffer(array("d", values))
    except (TypeError, OverflowError):  # a string, a list, a null, a missing field or an int too large among them
        fits = [v if type(v) is not int or -_FLOAT_END < v < _FLOAT_END else None for v in values]  # None: too large
        values = _typed(fits, _REAL, 0, bad, owner)
        floats = np.frombuffer(array("d", values))
    maybe_bools = np.flatnonzero((floats == 0) | (floats == 1)).tolist()
    bad[owner[[i for i in maybe_bools if type(values[i]) is bool]]] = True
    return floats


def _encoded(ids: list[str]) -> tuple[bytes, np.ndarray]:
    """The ids' UTF-8 bytes end to end, a lone surrogate kept, and the length in bytes of each."""
    text = "".join(ids)
    data = text.encode(*_UTF8)
    sizes = map(len, ids) if len(data) == len(text) else (len(i.encode(*_UTF8)) for i in ids)  # ASCII: 1 byte each
    return data, np.fromiter(sizes, dtype=np.int64, count=len(ids))


def _in_bulk(chunk: list[str], first: int, codes: dict[str, int]) -> tuple:
    """``chunk``'s records, its first line numbered ``first``: ts, lat, lon, city code in ``codes``, label code and
    deleted, each a column; the frame scores and the ids' UTF-8 bytes, each end to end with each record's length;
    and a failure for each other line that is not blank.

    Per line, only what a column cannot show is tested: a JSON object on a UTF-8 line, its frame scores a list or
    none. Per chunk, the types of every field and score, then ranges, labels and timestamps, in numpy. A line that
    any check flags gets its message from :func:`_fields`."""
    decode, rows, frames, n_frames, flagged = _DECODER.raw_decode, [], [], [], []  # rows: each line's _KEYS fields
    for line in chunk:
        try:
            obj, end = decode(line)
        except Exception:
            try:
                obj, end = decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
            except Exception:  # a blank line too, which is no failure
                obj = None
        if (type(obj) is dict and (end == len(line) or not line[end:].strip(_JSON_SPACE))
                and (line.isascii() or not _NOT_UTF8.search(line))):
            scores = obj.pop("frame_scores", None)
            if scores is None or type(scores) is list:
                rows += map(obj.pop, _KEYS, _DEFAULTS)  # another key is left in obj, as _fields ignores it
                frames += scores or ()
                n_frames.append(-1 if scores is None else len(scores))
                continue
        flagged.append(len(n_frames))
        rows += _STAND_IN
        n_frames.append(-1)
    n, n_frames = len(chunk), np.array(n_frames, dtype=np.int64)
    bad, sizes, lines = np.zeros(n, dtype=bool), np.maximum(n_frames, 0), np.arange(n)
    bad[flagged], owner = True, np.repeat(lines, sizes)  # owner: the line of each frame score
    fields = [rows[k::len(_KEYS)] for k in range(len(_KEYS))]
    ids, stamps, cities, deleted, labels = map(_typed, fields, _KINDS, _STAND_IN, repeat(bad), repeat(lines))
    lat, lon, duration = (_floats(values, bad, lines) for values in fields[len(_KINDS):])
    scores = _floats(frames, bad, owner)
    bad |= ~((-90 <= lat) & (lat <= 90) & (-180 <= lon) & (lon <= 180) & (0 <= duration) & (duration < np.inf))
    bad |= n_frames == 0
    bad[owner[~((0 <= scores) & (scores <= 1))]] = True  # NaN too
    label = np.fromiter(map(_LABEL_CODES.get, labels, repeat(-2)), dtype=np.int8, count=n)
    ts, parsed = _epoch_seconds(stamps)
    bad |= (label == -2) | ~parsed
    failures = []
    for i in np.flatnonzero(bad).tolist():
        if chunk[i].strip():
            try:
                _fields(chunk[i])
            except Exception as exc:
                failures.append(ParseFailure(first + i, str(exc)))
            else:
                raise SnapGridError(f"line {first + i}: the bulk checks reject what _fields accepts, a program fault")
    good = ~bad
    kept = list(compress(cities, good))
    for city in dict.fromkeys(kept):
        codes.setdefault(city, len(codes))
    city = np.fromiter(map(codes.__getitem__, kept), dtype=np.int32, count=len(kept))
    return (ts[good], lat[good], lon[good], city, label[good], np.array(deleted)[good], scores[good[owner]],
            sizes[good], *_encoded(list(compress(ids, good))), failures)


def parse_snaps(source: Union[str, Path, Iterable[str]]) -> tuple["SnapColumns", list[ParseFailure]]:
    """Decode JSONL records from a path or an iterable of lines straight into columns.

    Each non-blank line that passes the checks is one record, in input order, deleted or not, and the city table
    holds each city id as parsed (see :func:`filter_active`); each other line, one that is not UTF-8 too, is a
    failure with its 1-based line number. Raises :class:`SnapGridError` naming the file (when ``source`` is a
    path) and the first bad line when failures outnumber successes.

    The lines are checked ``_CHUNK_LINES`` at a time, in bulk (:func:`_in_bulk`); a flagged line is checked again
    on its own by :func:`_fields`, the one source of failure messages.
    """
    named = isinstance(source, (str, Path))
    per_record = ts, lat, lon, city, label, deleted = tuple(map(array, "qddibb"))  # int64, float64, float64, int32...
    scores, ids, score_ends, id_ends = array("d"), bytearray(), array("q", [0]), array("q", [0])
    codes: dict[str, int] = {}  # city id -> its code, in order of first appearance
    failures: list[ParseFailure] = []
    with open(source, newline="", encoding="utf-8", errors="surrogateescape") if named else nullcontext(source) as lines:
        lines, first = iter(lines), 1
        while chunk := list(islice(lines, _CHUNK_LINES)):
            *values, frames, counts, id_bytes, sizes, bad = _in_bulk(chunk, first, codes)
            for column, value in zip((*per_record, scores), (*values, frames)):
                column.frombytes(value.tobytes())
            ids += id_bytes
            for ends, value in ((score_ends, counts), (id_ends, sizes)):
                ends.frombytes((ends[-1] + np.cumsum(value)).tobytes())
            failures += bad
            first += len(chunk)
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
