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

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union
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


# fields a wrong JSON type must fail rather than be coerced: "false" is not false, null is not "None"
_FIELD_TYPES = {"id": (str, "a string"), "city_id": (str, "a string"), "deleted": (bool, "true or false")}


def _record_from_dict(obj: dict) -> SnapRecord:
    for key, (kind, what) in _FIELD_TYPES.items():
        if key in obj and not isinstance(obj[key], kind):
            raise ValueError(f"{key} must be {what}, got {json.dumps(obj[key])}")
    scores = obj.get("frame_scores")
    return SnapRecord(
        id=obj["id"],
        ts_utc=parse_rfc3339(obj["ts_utc"]),
        location=GeoPoint(float(obj["lat"]), float(obj["lon"])),
        city_id=obj["city_id"],
        duration_s=float(obj.get("duration_s", 0.0)),
        frame_scores=tuple(float(s) for s in scores) if scores is not None else None,
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


def write_snaps(records: Iterable[SnapRecord], path: Union[str, Path]) -> None:
    """Write records to ``path`` as JSONL, one object per line."""
    with open(path, "w", newline="") as fh:
        for rec in records:
            fh.write(json.dumps(_record_to_dict(rec), separators=(",", ":")) + "\n")


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
