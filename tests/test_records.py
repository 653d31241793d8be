"""Record parsing, serialization, timezones, deletions."""

import json

import pytest

from snapgrid.errors import ConfigError, CorruptInputError
from snapgrid.geo import GeoPoint
from snapgrid.records import (
    SnapRecord,
    deletion_summary,
    filter_active,
    format_rfc3339,
    parse_rfc3339,
    parse_snaps,
    to_local_time,
    write_snaps,
)


def make_record(i=0, **overrides):
    fields = dict(
        id=f"nyc-{i:06d}",
        ts_utc=1554076800 + i * 60,
        location=GeoPoint(40.75 + i * 1e-4, -73.99),
        city_id="nyc",
        duration_s=5.0,
        frame_scores=(0.9, 0.2, 0.7),
        label="driving",
        deleted=False,
    )
    fields.update(overrides)
    return SnapRecord(**fields)


# ---------------------------------------------------------------------------
# timestamps


def test_rfc3339_parse_and_format():
    assert parse_rfc3339("2019-04-01T00:00:00Z") == 1554076800
    assert format_rfc3339(1554076800) == "2019-04-01T00:00:00Z"
    # an offset timestamp denotes the same instant
    assert parse_rfc3339("2019-04-01T03:00:00+03:00") == 1554076800


def test_rfc3339_round_trip():
    for ts in (0, 1554076800, 1700000000):
        assert parse_rfc3339(format_rfc3339(ts)) == ts


def test_to_local_time_fixed_offset():
    dt = to_local_time(1554076800, "Asia/Riyadh")  # UTC+3, no DST
    assert (dt.hour, dt.minute) == (3, 0)


def test_to_local_time_utc_identity():
    dt = to_local_time(1554076800, "UTC")
    assert (dt.year, dt.month, dt.day, dt.hour) == (2019, 4, 1, 0)


def test_to_local_time_handles_dst_transition():
    # London springs forward at 2019-03-31T01:00Z: 00:30Z is still GMT,
    # 01:30Z is already BST (02:30 local)
    before = to_local_time(parse_rfc3339("2019-03-31T00:30:00Z"), "Europe/London")
    after = to_local_time(parse_rfc3339("2019-03-31T01:30:00Z"), "Europe/London")
    assert before.hour == 0
    assert after.hour == 2


def test_unknown_timezone_raises():
    with pytest.raises(ConfigError):
        to_local_time(0, "Mars/Olympus_Mons")


# ---------------------------------------------------------------------------
# serialization round trips


def test_jsonl_round_trip(tmp_path):
    recs = [make_record(i) for i in range(5)]
    recs[2] = make_record(2, label=None, frame_scores=None)
    recs[3] = make_record(3, deleted=True)
    path = tmp_path / "snaps.jsonl"
    write_snaps(recs, path)
    parsed, failures = parse_snaps(path.read_text().splitlines())
    assert failures == []
    assert parsed == recs


def test_file_round_trip(tmp_path):
    recs = [make_record(i) for i in range(3)]
    path = tmp_path / "snaps.jsonl"
    write_snaps(recs, path)
    parsed, failures = parse_snaps(path)
    assert failures == []
    assert parsed == recs


def test_parse_failures_carry_line_numbers():
    good = {"id": "a", "ts_utc": "2019-04-01T00:00:00Z", "lat": 1.0, "lon": 2.0, "city_id": "x"}
    lines = [
        json.dumps(good),
        "this is not json",
        json.dumps({**good, "id": "b"}),
        json.dumps({**good, "ts_utc": "bogus"}),
        # a wrongly typed field fails rather than being coerced, and NaN is no JSON number
        json.dumps({**good, "deleted": "false"}),
        json.dumps({**good, "id": None}),
        json.dumps({**good, "city_id": None}),
        json.dumps({**good, "duration_s": float("nan")}),
        # a JSON number is an int or a float, never a bool or a string; frame_scores is a list
        json.dumps({**good, "lat": True}),
        json.dumps({**good, "lat": "1.5"}),
        json.dumps({**good, "duration_s": False}),
        json.dumps({**good, "frame_scores": "1"}),
        json.dumps({**good, "frame_scores": ["0.9", True]}),
    ] + [json.dumps(good)] * 10  # enough good lines that failures do not outnumber them
    records, failures = parse_snaps(lines)
    assert [r.id for r in records] == ["a", "b"] + ["a"] * 10
    assert [f.line_number for f in failures] == [2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]
    assert [f.message.split(" must ")[0] for f in failures[2:]] == [
        "deleted", "id", "city_id", "duration_s", "lat", "lat", "duration_s", "frame_scores", "frame_scores"
    ]


def test_blank_lines_are_skipped_without_failures():
    lines = [
        "",
        '{"id": "a", "ts_utc": "2019-04-01T00:00:00Z", "lat": 1.0, "lon": 2.0, "city_id": "x"}',
        "   ",
    ]
    records, failures = parse_snaps(lines)
    assert len(records) == 1 and failures == []


def test_mostly_garbage_input_raises():
    lines = ["nope", "also nope", '{"id": "a", "ts_utc": "2019-04-01T00:00:00Z", "lat": 0, "lon": 0, "city_id": "x"}']
    with pytest.raises(CorruptInputError):
        parse_snaps(lines)


def test_record_validation():
    with pytest.raises(ValueError):
        make_record(duration_s=-1.0)
    with pytest.raises(ValueError):
        make_record(label="walking")
    with pytest.raises(ValueError):
        make_record(frame_scores=(0.5, 1.5))


# ---------------------------------------------------------------------------
# deletions


def test_mark_deleted_and_filter_active():
    marked = [make_record(i, deleted=i in (1, 4)) for i in range(6)]
    assert [r.deleted for r in marked] == [False, True, False, False, True, False]
    active = filter_active(marked)
    assert [r.id for r in active] == ["nyc-000000", "nyc-000002", "nyc-000003", "nyc-000005"]
    summary = deletion_summary(marked)
    assert (summary.total, summary.deleted) == (6, 2)
    assert summary.rate_pct == pytest.approx(100.0 * 2 / 6)


def test_deletion_summary_empty():
    assert deletion_summary([]).rate_pct == 0.0
