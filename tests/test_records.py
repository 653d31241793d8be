"""Record parsing, serialization, timezones, deletions."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import record_oracle
from record_oracle import Record, assert_same_columns, columns, record
from snapgrid import cli, records
from snapgrid.errors import ConfigError, SnapGridError
from snapgrid.records import (
    SnapColumns,
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
        lat=40.75 + i * 1e-4,
        lon=-73.99,
        city_id="nyc",
        duration_s=5.0,
        frame_scores=(0.9, 0.2, 0.7),
        label="driving",
        deleted=False,
    )
    fields.update(overrides)
    return Record(**fields)


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


# Synth's form with any number in each field, so that out-of-range dates and times are drawn too, and that form with
# one character replaced: a digit of another script, a separator or a sign parse_rfc3339 may or may not accept.
_SYNTH_FORM = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format,
    st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32), st.integers(0, 25), st.integers(0, 61),
    st.integers(0, 61),
)
_STAMP = _SYNTH_FORM | st.tuples(_SYNTH_FORM, st.integers(0, 19), st.sampled_from("0 9tTz+-:.\u0661\uff10\x00")).map(
    lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:]
) | st.sampled_from(["2019-04-01T03:00:00+03:00", "2019-04-01T00:00:00", "2019-04-01T00:00:00.5Z", "2019-04-01"])


@settings(max_examples=300, deadline=None)
@example(["+019-04-01T00:00:00Z"])
@example(["2019-04-01t00:00:00Z", "2019-04-01T00:00:00Z"])
@example(["2019-04-01 00:00:00Z"])
@example(["2019-02-29T00:00:00Z", "2020-02-29T00:00:00Z"])
@example(["2019-04-01T00:00:60Z"])
@example(["2019-04-01T24:00:00Z"])
@example(["0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z"])
@given(st.lists(_STAMP, min_size=1, max_size=6))
def test_timestamps_checked_in_bulk_are_parse_rfc3339s(stamps):
    # the bulk path's epoch seconds, and its failures' messages, are parse_rfc3339's, whatever the chunk's other stamps
    stamps = stamps + ["2019-04-01T00:00:00Z"] * len(stamps)  # enough good lines that failures never outnumber them
    parsed, failures = parse_snaps([json.dumps({"id": "a", "ts_utc": stamp, "lat": 0, "lon": 0, "city_id": "x"})
                                    for stamp in stamps])
    want_ts, want_failures = [], []
    for number, stamp in enumerate(stamps, 1):
        try:
            want_ts.append(parse_rfc3339(stamp))
        except ValueError as exc:
            want_failures.append((number, str(exc)))
    assert [(f.line_number, f.message) for f in failures] == want_failures
    assert parsed.ts.tolist() == want_ts


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
    """A JSONL line, maybe with JSON whitespace before it, and whether one of its fields is wrongly typed; or a blank
    line."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "  ", "\t"])), False
    bad = draw(st.sampled_from([None, *_FIELDS]))
    obj = {}
    for field, (valid, wrong, optional) in _FIELDS.items():
        if field == bad:
            obj[field] = draw(wrong)
        elif not optional or draw(st.booleans()):
            obj[field] = draw(valid)
    return draw(st.text(" \t\n\r", max_size=2)) + json.dumps(obj), bad is not None


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
    good = {"id": "a", "ts_utc": "2019-04-01T00:00:00Z", "lat": 1.0, "lon": 2.0, "city_id": "x"}
    bad = [{"duration_s": -1.0}, {"label": "walking"}, {"frame_scores": [0.5, 1.5]}, {"frame_scores": []}]
    parsed, failures = parse_snaps([json.dumps({**good, **fields}) for fields in bad] + [json.dumps(good)] * 4)
    assert len(parsed) == 4
    assert [(f.line_number, f.message) for f in failures] == [
        (1, "duration_s must be finite and nonnegative, got -1.0"),
        (2, "label must be one of ('driving', 'non_driving'), got 'walking'"),
        (3, "frame score 1.5 outside [0, 1]"),
        (4, "frame_scores, when present, must be nonempty"),
    ]


_GOOD = {"id": "a", "ts_utc": "2019-04-01T00:00:00Z", "lat": 1.5, "lon": -2, "city_id": "x", "duration_s": 3,
         "frame_scores": [0.25, 1, 0], "label": "driving"}
# one line of each kind that fails, and of the kinds that a stricter check could wrongly fail; each goes into a chunk
# of its own and at each place in a chunk
_LINES = [
    *(json.dumps({**_GOOD, key: value}) for key, value in [
        ("id", 1), ("ts_utc", 1554076800), ("city_id", None), ("lat", True), ("lon", "1"), ("duration_s", False),
        ("deleted", "false"), ("deleted", 0), ("frame_scores", "x"), ("frame_scores", [0.5, True]),
        ("frame_scores", [None]), ("label", 1), ("label", ["driving"]), ("label", "walking"), ("lat", math.nan),
        ("duration_s", math.nan), ("frame_scores", [math.nan]), ("lat", 10**400), ("duration_s", -10**400),
        ("frame_scores", [0.5, 10**400]), ("lat", 90.5), ("lon", -180.5), ("lat", math.inf), ("duration_s", -1),
        ("duration_s", math.inf), ("frame_scores", [1.5]), ("frame_scores", [-0.0, -1e-300]), ("frame_scores", []),
        ("ts_utc", "2019-02-29T00:00:00Z"), ("ts_utc", "2019-04-01T03:00:00+03:00"), ("lat", 10**20),
        ("duration_s", 2**1024 - 2**970),  # the least int that float() refuses
        ("frame_scores", None), ("label", None), ("deleted", True), ("extra", [1, {"a": 2}]), ("city_id", "z\u00fc"),
    ]),
    *(json.dumps({key: value for key, value in _GOOD.items() if key != gone}) for gone in _GOOD),
    json.dumps(_GOOD, ensure_ascii=False).replace('"x"', '"\u00fc"'), json.dumps(_GOOD) + " x", " " + json.dumps(_GOOD),
    json.dumps(_GOOD) + " \t", "[1]", "nope", "", "  ", "\ufeff" + json.dumps(_GOOD), "\udcff" + json.dumps(_GOOD),
    json.dumps(_GOOD).replace('"a"', '"a\udcff"'),  # a byte that is not UTF-8 inside a string
]


def _fields_calls(monkeypatch) -> list[str]:
    """The lines that records._fields checks from now on, in order; it still checks them."""
    calls, fields = [], records._fields
    monkeypatch.setattr(records, "_fields", lambda line: calls.append(line) or fields(line))
    return calls


@pytest.mark.parametrize("chunk_lines", [1, 3, 4096])
def test_bulk_checks_fail_what_fields_fails_across_chunks(tmp_path, monkeypatch, chunk_lines):
    monkeypatch.setattr(records, "_CHUNK_LINES", chunk_lines)
    monkeypatch.setattr(records, "_WORKERS", 1)  # _fields' calls are seen only in this process
    good = json.dumps(_GOOD)
    texts = [text for i, line in enumerate(_LINES) for text in [good] * (i % 4) + [line]] + [good] * len(_LINES)
    path = tmp_path / "snaps.jsonl"
    path.write_bytes("".join(text + "\n" for text in texts).encode("utf-8", "surrogateescape"))
    want_failures, failing, kept = [], [], []
    for number, text in enumerate(texts, 1):
        if text.strip():
            try:
                records._fields(text)
            except Exception as exc:
                want_failures.append((number, str(exc)))
                failing.append(text + "\n")
            else:
                kept.append(record(json.loads(text)))
    calls = _fields_calls(monkeypatch)
    parsed, failures = parse_snaps(path)
    assert [(f.line_number, f.message) for f in failures] == want_failures
    # _fields words each failure once and sees no kept line: every chunk is checked in bulk
    assert calls == failing
    assert len(want_failures) > len(_LINES) / 2
    assert_same_columns(parsed, columns(kept), unstored=True)


def test_lines_at_the_edges_of_every_check_stay_in_bulk(monkeypatch):
    # a bulk check stricter than _fields would run a line that _fields accepts through it, a program fault
    edges = [("lat", -90), ("lat", 90.0), ("lon", -180), ("lon", 180.0), ("duration_s", 0), ("duration_s", 1e308),
             ("frame_scores", [0, 1, 0.0, 1.0, -0.0]), ("label", "non_driving"), ("deleted", True), ("extra", None),
             ("city_id", "\u00fc\ud800"), ("ts_utc", "0001-01-01T00:00:00Z"), ("ts_utc", "9999-12-31T23:59:59Z"),
             ("ts_utc", "2020-02-29T23:59:59Z"), ("lat", 10**20 - 10**20), ("duration_s", 2**1024 - 2**970 - 1)]
    lines = [json.dumps({**_GOOD, key: value}, ensure_ascii=key != "city_id") + "\r\n" for key, value in edges]
    lines += [space + json.dumps(_GOOD) for space in (" ", "\t", "\r", "\n", " \t\r\n ")]  # what json.loads skips
    calls = _fields_calls(monkeypatch)
    checked = records._in_bulk(lines, 1, {})
    assert calls == [] and checked[-1] == [] and len(checked[0]) == len(lines)


# ---------------------------------------------------------------------------
# the split over worker processes


def _parse_in(path, monkeypatch, workers: int, cuts=None):
    """parse_snaps(path) with ``workers`` workers, cut at ``cuts`` when given: its columns and its failures, or the
    message of what it raised."""
    monkeypatch.setattr(records, "_WORKERS", workers)
    if cuts is not None:
        monkeypatch.setattr(records, "_cuts", lambda fd: cuts)
    try:
        parsed, failures = parse_snaps(path)
    except SnapGridError as exc:
        return str(exc)
    return parsed, [(f.line_number, f.message) for f in failures]


def _same_parse(got, want) -> None:
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_columns(got[0], want[0], unstored=True)
        assert got[1] == want[1]


# good lines of three cities, one of them only after the middle, lines that fail, blank lines, every line ending, a
# byte that is not UTF-8, ids of two- and three-byte characters, and a last line with no newline
_MIXED = b"".join([
    json.dumps({**_GOOD, "city_id": "b"}).encode() + b"\r\n",
    b"nope\n",
    json.dumps({**_GOOD, "id": "\u00e9\u4e2d"}, ensure_ascii=False).encode() + b"\r",
    b"\n",
    b"\xff\n",
    json.dumps(_GOOD).encode() + b"\r\n",
    b"  \r\n",
    json.dumps({**_GOOD, "lat": 91}).encode() + b"\r",
    json.dumps({**_GOOD, "city_id": "c"}).encode() + b"\n",
    b"\r\n",
    json.dumps({**_GOOD, "id": "\u4e2d"}, ensure_ascii=False).encode() + b"\n",
    b"[1]\n",
    json.dumps(_GOOD).encode() + b"\n",
    json.dumps({**_GOOD, "city_id": "b", "label": "walking"}).encode() + b"\n",
    json.dumps({**_GOOD, "city_id": "b"}).encode(),
])


def test_every_cut_after_a_newline_parses_as_one_process(tmp_path, monkeypatch):
    path = tmp_path / "snaps.jsonl"
    path.write_bytes(_MIXED)
    want = _parse_in(path, monkeypatch, 1)
    assert len(want[1]) == 5 and len(want[0].cities) == 3
    cuts = [i + 1 for i, byte in enumerate(_MIXED) if byte == ord("\n")]
    for cut in cuts:  # a bad line on each side of nearly every cut, and a city first seen after it
        _same_parse(_parse_in(path, monkeypatch, 2, [cut]), want)
    for two_cuts in zip(cuts, cuts[4:]):  # three workers
        _same_parse(_parse_in(path, monkeypatch, 3, list(two_cuts)), want)


@pytest.mark.parametrize("before, after", [(b"\r", b"\n"), (b"\r", b"x"), (b"\xe4", b"\xb8\xad"), (b"\xff", b""),
                                           (b"\n", b"\n\n")],
                         ids=["inside-crlf", "after-cr", "inside-utf8", "after-not-utf8", "among-blank-lines"])
def test_the_file_is_cut_after_the_newline_nearest_its_middle(tmp_path, monkeypatch, before, after):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    body = json.dumps(_GOOD).encode() + b'\n{"x": "' + before  # the middle byte of the file is the one after
    text = body + after + b'"}\n' + json.dumps(_GOOD).encode() + b"\r\n"
    text += b" " * (2 * len(body) - len(text))
    path = tmp_path / "snaps.jsonl"
    path.write_bytes(text)
    monkeypatch.setattr(records, "_WORKERS", 2)
    with open(path, "rb") as fh:
        cuts = records._cuts(fh.fileno())
    nearest = min((i + 1 for i, byte in enumerate(text) if byte == ord("\n")), key=lambda c: abs(c - len(body)))
    assert cuts == [nearest]
    _same_parse(_parse_in(path, monkeypatch, 2), _parse_in(path, monkeypatch, 1))


@pytest.mark.parametrize("text, n_cuts", [(b"", 0), (b"\n", 0), (json.dumps(_GOOD).encode(), 0),
                                          (json.dumps(_GOOD).encode() + b"\n", 0),
                                          (json.dumps(_GOOD).encode() + b"\nnope", 1),
                                          ((json.dumps(_GOOD).encode() + b"\r\n") * 2, 1)],
                         ids=["empty", "blank", "one-no-newline", "one", "two-no-newline", "two"])
def test_files_of_no_one_and_two_lines(tmp_path, monkeypatch, text, n_cuts):
    path = tmp_path / "snaps.jsonl"
    path.write_bytes(text)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(records, "_WORKERS", 2)
    with open(path, "rb") as fh:
        assert len(records._cuts(fh.fileno())) == n_cuts
    _same_parse(_parse_in(path, monkeypatch, 2), _parse_in(path, monkeypatch, 1))


_NOT_JSON = "Expecting value: line 1 column 1 (char 0)"  # json's message for "nope"


def test_failures_outnumber_successes_on_the_totals_only(tmp_path, monkeypatch):
    good, bad = json.dumps(_GOOD), "nope"
    path = tmp_path / "snaps.jsonl"
    # the first half fails more lines than it keeps, the whole file does not
    path.write_text("\n".join([bad, bad, good, good, good, bad]) + "\n")
    got = _parse_in(path, monkeypatch, 2, [len(f"{bad}\n{bad}\n{good}\n")])
    assert got[1] == [(number, _NOT_JSON) for number in (1, 2, 6)]
    # the whole file fails more than it keeps, though neither half alone tells: named by its first failure overall
    path.write_text("\n".join([good, bad, good, bad, bad, good, bad]) + "\n")
    message = _parse_in(path, monkeypatch, 2, [len(f"{good}\n{bad}\n{good}\n")])
    assert message == f"{path}: 4 of 7 lines failed to parse; first at line 2: {_NOT_JSON}"
    assert message == _parse_in(path, monkeypatch, 1)
    path.write_text("\n".join([good, good, bad, bad, bad]) + "\n")  # every failure in the second range
    message = _parse_in(path, monkeypatch, 2, [len(f"{good}\n{good}\n")])
    assert message == _parse_in(path, monkeypatch, 1) and "first at line 3: " in message


def test_a_synth_corpus_with_bad_lines_parses_the_same_with_one_and_two_workers(tmp_path, monkeypatch):
    assert cli.main(["synth", "--seed", "4", "--out-dir", str(tmp_path), "--cities", "3", "--records", "400"]) == 0
    lines = (tmp_path / "snaps.jsonl").read_bytes().splitlines(keepends=True)
    for at in (5, len(lines) // 2 - 3, len(lines) // 2 + 3, len(lines) - 5):  # bad lines in each half
        lines[at] = lines[at].replace(b'"lat":', b'"lat":"')
    (tmp_path / "snaps.jsonl").write_bytes(b"".join(lines))
    want = _parse_in(tmp_path / "snaps.jsonl", monkeypatch, 1)
    assert len(want[1]) == 4 and len(want[0]) == 1196
    _same_parse(_parse_in(tmp_path / "snaps.jsonl", monkeypatch, 2), want)


def test_a_worker_that_dies_is_an_error(tmp_path, monkeypatch):
    path = tmp_path / "snaps.jsonl"
    path.write_text((json.dumps(_GOOD) + "\n") * 4)
    parent, parse = os.getpid(), records._parse
    # the child ends without sending anything; this process parses as before
    monkeypatch.setattr(records, "_parse", lambda *a: parse(*a) if os.getpid() == parent else os._exit(3))
    assert _parse_in(path, monkeypatch, 2) == "a parse worker ended with wait status 768 before it sent its records"


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
    assert cols.lat.tolist() == [r.lat for r in recs]
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
