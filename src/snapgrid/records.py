"""Post-record ingest: parsing, serialization, local time, deletions.

Records travel as JSONL (one object per line) or CSV with a fixed column
order. Timestamps are stored internally as UTC epoch seconds; wall-clock
local time is computed on demand from an IANA timezone identifier, so
there is a single temporal source of truth. Post timestamps are treated
as creation time (creation and upload are assumed to coincide).

Deletion handling is input-driven: records arrive already flagged
``deleted``, and this module only counts and filters them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .errors import ConfigError, CorruptInputError
from .geo import GeoPoint

DRIVING = "driving"
NON_DRIVING = "non_driving"
LABELS = (DRIVING, NON_DRIVING)

CSV_COLUMNS = ["id", "ts_utc", "lat", "lon", "city_id", "duration_s", "frame_scores", "label", "deleted"]


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
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be nonnegative, got {self.duration_s}")
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


def _record_from_dict(obj: dict) -> SnapRecord:
    scores = obj.get("frame_scores")
    return SnapRecord(
        id=str(obj["id"]),
        ts_utc=parse_rfc3339(obj["ts_utc"]),
        location=GeoPoint(float(obj["lat"]), float(obj["lon"])),
        city_id=str(obj["city_id"]),
        duration_s=float(obj.get("duration_s", 0.0)),
        frame_scores=tuple(float(s) for s in scores) if scores is not None else None,
        label=obj.get("label"),
        deleted=bool(obj.get("deleted", False)),
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


def _parse_jsonl_line(line: str) -> SnapRecord:
    return _record_from_dict(json.loads(line))


def _parse_csv_row(row: Sequence[str]) -> SnapRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
    rid, ts, lat, lon, city, dur, scores, label, deleted = row
    return SnapRecord(
        id=rid,
        ts_utc=parse_rfc3339(ts),
        location=GeoPoint(float(lat), float(lon)),
        city_id=city,
        duration_s=float(dur),
        frame_scores=tuple(float(s) for s in scores.split(";")) if scores else None,
        label=label or None,
        deleted=deleted.strip().lower() in ("true", "1"),
    )


def _open_lines(source) -> tuple[Iterator[str], Optional[IO]]:
    if isinstance(source, (str, Path)):
        fh = open(source, "r", newline="")
        return iter(fh), fh
    if hasattr(source, "read"):
        return iter(source), None
    return iter(source), None


def parse_snaps(
    source: Union[str, Path, IO, Iterable[str]],
    format: str = "jsonl",
) -> tuple[list[SnapRecord], list[ParseFailure]]:
    """Parse a line-delimited record stream.

    Valid records come back in input order; each malformed line is
    reported with its 1-based line number rather than silently dropped.
    Raises :class:`CorruptInputError` when failures outnumber successes.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}")
    lines, fh = _open_lines(source)
    records: list[SnapRecord] = []
    failures: list[ParseFailure] = []
    try:
        line_number = 0
        header_skipped = False
        for raw in lines:
            line_number += 1
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if format == "csv" and not header_skipped:
                header_skipped = True
                if line.split(",")[0] == "id":
                    continue
            try:
                if format == "jsonl":
                    records.append(_parse_jsonl_line(line))
                else:
                    records.append(_parse_csv_row(next(csv.reader([line]))))
            except Exception as exc:
                failures.append(ParseFailure(line_number, str(exc)))
    finally:
        if fh is not None:
            fh.close()
    if failures and len(failures) > len(records):
        raise CorruptInputError(
            f"{len(failures)} of {len(failures) + len(records)} lines failed to parse"
        )
    return records, failures


def write_snaps(records: Iterable[SnapRecord], sink: Union[str, Path, IO], format: str = "jsonl") -> None:
    """Serialize records, one per line, in the given format."""
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}")
    own = isinstance(sink, (str, Path))
    fh = open(sink, "w", newline="") if own else sink
    try:
        if format == "jsonl":
            for rec in records:
                fh.write(json.dumps(_record_to_dict(rec), separators=(",", ":")))
                fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow([
                    rec.id,
                    format_rfc3339(rec.ts_utc),
                    repr(rec.location.lat),
                    repr(rec.location.lon),
                    rec.city_id,
                    repr(rec.duration_s),
                    ";".join(repr(s) for s in rec.frame_scores) if rec.frame_scores is not None else "",
                    rec.label or "",
                    "true" if rec.deleted else "false",
                ])
    finally:
        if own:
            fh.close()


def snaps_to_string(records: Iterable[SnapRecord], format: str = "jsonl") -> str:
    buf = io.StringIO()
    write_snaps(records, buf, format=format)
    return buf.getvalue()


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
