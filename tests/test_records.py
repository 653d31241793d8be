"""Record parsing, serialization, timezones, deletions."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import record_oracle
from record_oracle import assert_same_columns, columns, record
from snapgrid.errors import ConfigError, SnapGridError
from snapgrid.geo import GeoPoint
from snapgrid.records import (
    SnapColumns,
    SnapRecord,
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
    recs[4] = make_record(4, id="\u00e9\ud800\"\\\n", city_id="z\u00fc", frame_scores=(0.0, 1.0, 1e-300))
    path = tmp_path / "snaps.jsonl"
    write_snaps([columns(recs)], path)
    # the text json.dumps writes, no label, no scores and deleted included
    record_oracle.write_snaps(recs, tmp_path / "oracle.jsonl")
    assert path.read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    parsed, failures = parse_snaps(path.read_text().splitlines())
    assert failures == []
    assert_same_columns(parsed, columns(recs), unstored=True)


def test_file_round_trip(tmp_path):
    recs = [make_record(i) for i in range(3)]
    path = tmp_path / "snaps.jsonl"
    write_snaps([columns(recs)], path)
    parsed, failures = parse_snaps(path)
    assert failures == []
    assert_same_columns(parsed, columns(recs), unstored=True)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_line_that_is_not_utf8_is_a_numbered_failure(tmp_path, ending):
    good = [json.dumps({"id": f"{i}\u00e9", "ts_utc": "2019-04-01T00:00:00Z", "lat": 1, "lon": 2, "city_id": "x"},
                       ensure_ascii=False).encode() for i in range(3)]
    path = tmp_path / "snaps.jsonl"
    # an escaped lone surrogate is JSON text and stays a valid id; a raw 0xff or 0x80 byte is not UTF-8
    lines = [good[0], b"\xff", good[1], good[2][:-1] + b"\x80}", b'{"id": "\\udcff"}', good[2]]
    path.write_bytes(ending.encode().join(lines) + ending.encode())
    parsed, failures = parse_snaps(path)
    assert [(f.line_number, f.message) for f in failures] == [
        (2, "line is not UTF-8"), (4, "line is not UTF-8"), (5, "missing field 'ts_utc'")
    ]
    assert len(parsed) == 3 and parsed.ids.tobytes().decode() == "0\u00e91\u00e92\u00e9"


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
        # a JSON value that is not an object, a missing field and a timestamp that is no string
        "[1, 2]",
        "3",
        '"x"',
        json.dumps({key: value for key, value in good.items() if key != "id"}),
        json.dumps({**good, "ts_utc": 1554076800}),
    ] + [json.dumps(good)] * 15  # enough good lines that failures do not outnumber them
    parsed, failures = parse_snaps(lines)
    ends = parsed.id_offsets.tolist()
    assert [parsed.ids[a:b].tobytes().decode() for a, b in zip(ends, ends[1:])] == ["a", "b"] + ["a"] * 15
    assert [f.line_number for f in failures] == [2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18]
    assert [f.message.split(" must ")[0] for f in failures[2:11]] == [
        "deleted", "id", "city_id", "duration_s", "lat", "lat", "duration_s", "frame_scores", "frame_scores"
    ]
    assert [f.message for f in failures[11:]] == [
        "not a JSON object", "not a JSON object", "not a JSON object", "missing field 'id'",
        "ts_utc must be a string, got 1554076800",
    ]


# Fuzz: a line has valid fields and at most one wrongly typed one: a JSON
# value of another type, NaN or an int too large for a float.
_WRONG = st.one_of(
    st.text(max_size=5), st.booleans(), st.none(), st.lists(st.integers(), max_size=2), st.just(math.nan),
    st.integers(min_value=2**1100), st.integers(max_value=-(2**1100)),
)
_NUMBER = st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6)
_FIELDS = {  # field: (valid values, wrong values, may be left out)
    "id": (st.text(max_size=8), _WRONG.filter(lambda v: type(v) is not str), False),
    "ts_utc": (st.integers(0, 2**31).map(format_rfc3339), _WRONG.filter(lambda v: type(v) is not str), False),
    "lat": (st.integers(-90, 90) | st.floats(-90, 90), _WRONG, False),
    "lon": (st.integers(-180, 180) | st.floats(-180, 180), _WRONG, False),
    "city_id": (st.text(max_size=8), _WRONG.filter(lambda v: type(v) is not str), False),
    "duration_s": (st.integers(0, 10**6) | st.floats(0, 1e6), _WRONG, True),
    "frame_scores": (
        st.none() | st.lists(st.integers(0, 1) | st.floats(0, 1), min_size=1, max_size=4),
        _WRONG.filter(lambda v: v is not None and type(v) is not list)
        | st.lists(_NUMBER, max_size=2).flatmap(lambda ok: _WRONG.map(lambda v: [*ok, v])),
        True,
    ),
    "label": (st.sampled_from([None, "driving", "non_driving"]), _WRONG.filter(lambda v: v is not None), True),
    "deleted": (st.booleans(), _WRONG.filter(lambda v: type(v) is not bool), True),
}


@st.composite
def _snap_line(draw) -> tuple[str, bool]:
    """A JSONL line and whether one of its fields is wrongly typed; or a blank line."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "  ", "\t"])), False
    bad = draw(st.sampled_from([None, *_FIELDS]))
    obj = {}
    for field, (valid, wrong, optional) in _FIELDS.items():
        if field == bad:
            obj[field] = draw(wrong)
        elif not optional or draw(st.booleans()):
            obj[field] = draw(valid)
    return json.dumps(obj), bad is not None


@settings(max_examples=150, deadline=None)
@given(st.lists(_snap_line(), max_size=12))
def test_fuzzed_lines_give_a_typed_record_or_a_numbered_failure(lines):
    padding = '{"id": "pad", "ts_utc": "2019-04-01T00:00:00Z", "lat": 0, "lon": 0, "city_id": "x"}'
    # enough good lines that failures never outnumber records
    parsed, failures = parse_snaps([text for text, _bad in lines] + [padding] * len(lines))
    bad = [i for i, (text, is_bad) in enumerate(lines, 1) if is_bad]
    good = [json.loads(text) for text, is_bad in lines if text.strip() and not is_bad]
    # one outcome per non-blank line; every wrongly typed line, and no other, fails with its number
    assert len(parsed) - len(lines) + len(failures) == sum(1 for text, _bad in lines if text.strip())
    assert [f.line_number for f in failures] == bad
    # the kept lines in order, each column of its value and dtype
    want = columns([record(obj) for obj in good + [json.loads(padding)] * len(lines)])
    assert_same_columns(parsed, want, unstored=True)


def test_blank_lines_are_skipped_without_failures():
    lines = [
        "",
        '{"id": "a", "ts_utc": "2019-04-01T00:00:00Z", "lat": 1.0, "lon": 2.0, "city_id": "x"}',
        "   ",
    ]
    parsed, failures = parse_snaps(lines)
    assert len(parsed) == 1 and failures == []


def test_mostly_garbage_input_raises():
    lines = ["nope", "also nope", '{"id": "a", "ts_utc": "2019-04-01T00:00:00Z", "lat": 0, "lon": 0, "city_id": "x"}']
    with pytest.raises(SnapGridError, match="^2 of 3 lines failed to parse; first at line 1: "):
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
    marked = [make_record(i, deleted=i in (1, 4), city_id="ab"[i % 2]) for i in range(6)]
    cols = columns(marked)
    assert cols.deleted.tolist() == [False, True, False, False, True, False]
    active = filter_active(cols, np.ones(len(cols), dtype=bool))
    assert_same_columns(active, columns([marked[i] for i in (0, 2, 3, 5)]), unstored=True)
    # a mask leaves out more, and the city table keeps only the cities left
    in_a = filter_active(cols, cols.city == 0)
    assert_same_columns(in_a, columns([marked[i] for i in (0, 2)]), unstored=True)
    assert in_a.cities.dtype.kind == "U"


# ---------------------------------------------------------------------------
# columns


def test_columns_round_trip(tmp_path):
    recs = [
        make_record(0, frame_scores=None, city_id="zz"),  # unscored, first
        make_record(1, id="\ud800,\"x\"", label=None),  # a lone surrogate, quotes and a comma
        make_record(2, frame_scores=(0.5,), label="non_driving"),
        make_record(3, id="", frame_scores=None),  # unscored, last
    ]
    path = tmp_path / "cols.tmp"
    columns(recs).save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["cols.tmp"]  # no ".npz" appended
    cols = SnapColumns.load(path)
    assert len(cols) == 4
    assert cols.cities.tolist() == ["nyc", "zz"] and cols.city.tolist() == [1, 0, 0, 0]
    assert cols.label.tolist() == [0, -1, 1, 0]
    assert cols.ts.tolist() == [r.ts_utc for r in recs]
    assert cols.lat.tolist() == [r.location.lat for r in recs]
    assert cols.scored.tolist() == [False, True, True, False]
    assert cols.scores.tolist() == [0.9, 0.2, 0.7, 0.5] and cols.score_offsets.tolist() == [0, 0, 3, 4, 4]
    ends = cols.id_offsets.tolist()
    assert [cols.ids[a:b].tobytes().decode("utf-8", "surrogatepass") for a, b in zip(ends, ends[1:])] == [
        r.id for r in recs
    ]


def test_columns_of_no_records_round_trip(tmp_path):
    parsed, _failures = parse_snaps([])
    filter_active(parsed, np.ones(0, dtype=bool)).save(tmp_path / "c.npz")
    cols = SnapColumns.load(tmp_path / "c.npz")
    assert len(cols) == 0 and cols.score_offsets.tolist() == [0] and cols.scored.tolist() == []


def test_columns_reject_a_city_id_the_string_table_would_change():
    # a numpy string array drops trailing NULs, so "a\0" would be saved as "a"
    line = {"id": "x", "ts_utc": "2019-04-01T00:00:00Z", "lat": 0, "lon": 0}
    parsed, _failures = parse_snaps([json.dumps({**line, "city_id": c}) for c in ("a", "a\0")])
    assert parsed.cities.tolist() == ["a", "a\0"]
    with pytest.raises(SnapGridError, match="do not survive as a string table"):
        filter_active(parsed, np.ones(2, dtype=bool))
    assert filter_active(parsed, parsed.city == 0).cities.tolist() == ["a"]


def test_columns_load_rejects_a_wrong_dtype(tmp_path):
    cols = vars(columns([make_record(0)]))
    np.savez(tmp_path / "c.npz", **{**cols, "city": cols["city"].astype(float)})
    with pytest.raises(ValueError, match="'city' is not a 1-d int32 array"):
        SnapColumns.load(tmp_path / "c.npz")
