"""Post-record ingest: parsing, serialization, local time, deletions.

Records travel as JSONL, one object per line. Timestamps are stored
internally as UTC epoch seconds; wall-clock local time is computed on
demand from an IANA timezone identifier, so there is a single temporal
source of truth. Post timestamps are treated as creation time (creation
and upload are assumed to coincide).

Deletion handling is input-driven: records arrive already flagged
``deleted``, and this module only counts and filters them.
"""

from __future__ import annotations

import io
import json
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .errors import ConfigError, CorruptInputError
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


def parse_snaps(source: Union[str, Path, IO, Iterable[str]]) -> tuple[list[SnapRecord], list[ParseFailure]]:
    """Parse a JSONL record stream.

    Valid records come back in input order; each malformed line is
    reported with its 1-based line number rather than silently dropped.
    Raises :class:`CorruptInputError` when failures outnumber successes; its
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
        raise CorruptInputError(
            f"{where}{len(failures)} of {len(failures) + len(records)} lines failed to parse; "
            f"first at line {first.line_number}: {first.message}"
        )
    return records, failures


def write_snaps(records: Iterable[SnapRecord], sink: Union[str, Path, IO]) -> None:
    """Serialize records as JSONL, one object per line."""
    with open(sink, "w", newline="") if isinstance(sink, (str, Path)) else nullcontext(sink) as fh:
        for rec in records:
            fh.write(json.dumps(_record_to_dict(rec), separators=(",", ":")) + "\n")


def snaps_to_string(records: Iterable[SnapRecord]) -> str:
    buf = io.StringIO()
    write_snaps(records, buf)
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
