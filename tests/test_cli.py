"""Pipeline driver: config handling, stage outputs, exit codes, idempotence."""

import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from snapgrid import cli, records
from snapgrid.cli import CLEANED, DEFAULT_CONFIG, STAGES, _commit, build_parser, load_config, main
from snapgrid.errors import ConfigError
import record_oracle
from record_oracle import Record, columns, record


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small synthetic corpus run through every stage."""
    out = tmp_path_factory.mktemp("pipeline")
    rc = main(
        [
            "synth",
            "--seed", "5",
            "--out-dir", str(out),
            "--cities", "3",
            "--records", "3000",
        ]
    )
    assert rc == 0
    config = str(out / "pipeline.yaml")
    stages = [
        ["grid", "--config", config],
        ["ingest", "--config", config],
        ["annotate", "--config", config],
        ["classify", "--config", config],
        ["extent", "--config", config],
        ["spatial", "--config", config],
        ["temporal", "--config", config],
        ["cluster", "--config", config],
        ["regress", "--config", config],
        ["report", "--config", config],
    ]
    for argv in stages:
        assert main(argv) == 0, argv[0]
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# stage outputs


def test_synth_outputs(pipeline_dir):
    for name in ("snaps.jsonl", "annotations.csv", "city_stats.csv", "manifest.json", "pipeline.yaml"):
        assert (pipeline_dir / name).exists(), name
    manifest = read_json(pipeline_dir / "manifest.json")
    assert manifest["seed"] == 5
    assert len(manifest["cities"]) == 3


def test_grid_stage(pipeline_dir):
    summary = read_json(pipeline_dir / "grid.json")
    assert set(summary) == {"city00", "city01", "city02"}
    for city in summary.values():
        assert (city["n_rows"], city["n_cols"]) == (10, 10)
        assert city["n_active"] == 100
    assert (pipeline_dir / "grid_city00.csv").exists()


def test_ingest_stage(pipeline_dir):
    info = read_json(pipeline_dir / "ingest.json")
    assert info["parsed"] == 9000
    assert info["parse_failures"] == 0
    assert info["kept"] == info["parsed"] - info["deleted"]
    assert 0.0 < info["deletion_rate_pct"] < 10.0


def test_ingest_drops_records_of_unknown_cities(tmp_path):
    assert main(["synth", "--seed", "4", "--out-dir", str(tmp_path), "--cities", "2", "--records", "300"]) == 0
    lines = (tmp_path / "snaps.jsonl").read_text().splitlines(keepends=True)
    strays = [json.loads(line) | {"id": f"zz-{i}", "city_id": "zz"} for i, line in enumerate(lines[:40])]
    with open(tmp_path / "snaps.jsonl", "a") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in strays)
    config = str(tmp_path / "pipeline.yaml")
    for stage in ("ingest", "classify", "extent", "spatial"):
        assert main([stage, "--config", config]) == 0, stage
    assert read_json(tmp_path / "ingest.json")["unknown_city"] == 40
    heatmap_total = 0
    for city in ("city00", "city01"):
        with open(tmp_path / f"heatmap_{city}.csv", newline="") as fh:
            heatmap_total += sum(int(row["total_count"]) for row in csv.DictReader(fh))
    assert heatmap_total == read_json(tmp_path / "classify.json")["n_classified"]
    assert set(read_json(tmp_path / "extent.json")["per_city"]) == {"city00", "city01"}


def test_annotate_stage(pipeline_dir):
    info = read_json(pipeline_dir / "annotation.json")
    assert info["n_items"] == 600
    assert info["n_raters"] == 3
    assert 0.0 < info["fleiss_kappa"] <= 1.0
    labels = (pipeline_dir / "labels.csv").read_text().strip().split("\n")
    assert labels[0] == "item_id,label,support"
    assert len(labels) == 601


def test_classify_stage(pipeline_dir):
    info = read_json(pipeline_dir / "classify.json")
    assert info["rule"] == "majority"
    assert info["n_classified"] > 5000
    assert info["eval"]["accuracy"] > 0.95


def test_extent_stage(pipeline_dir):
    info = read_json(pipeline_dir / "extent.json")
    assert abs(info["overall"] - 0.2356) < 0.01
    assert set(info["per_city"]) == {"city00", "city01", "city02"}
    ranked = [c for c, _f in info["ranking"]]
    fractions = [f for _c, f in info["ranking"]]
    assert fractions == sorted(fractions, reverse=True)
    assert set(ranked) == {"city00", "city01", "city02"}


def test_spatial_stage(pipeline_dir):
    info = read_json(pipeline_dir / "spatial.json")
    assert set(info["cities"]) == {"city00", "city01", "city02"}
    assert sum(info["bic_win_pct"].values()) == pytest.approx(100.0)
    heatmap = (pipeline_dir / "heatmap_city00.csv").read_text().split("\n", 1)[0]
    assert heatmap.rstrip("\r") == "row,col,center_lat,center_lon,driving_count,total_count"


def test_temporal_stage(pipeline_dir):
    info = read_json(pipeline_dir / "temporal.json")
    assert set(info["per_city"]) == {"city00", "city01", "city02"}
    assert len(info["pooled"]["profile"]) == 24
    # the corpus plants a 75% night uplift; small samples wander a bit
    assert info["pooled"]["night_uplift_pct"] == pytest.approx(75.0, abs=20.0)
    for r in info["correlation_with_pooled"].values():
        assert -1.0 <= r <= 1.0


def test_cluster_stage(pipeline_dir):
    info = read_json(pipeline_dir / "cluster.json")
    assert info["k"] == 3
    assert set(info["labels"]) == {"city00", "city01", "city02"}
    assert info["silhouette"] is None  # undefined at k == n
    assert set(info["embedding"]) == {"city00", "city01", "city02"}


def _cluster(out: Path, n_cities: int) -> int:
    """Exit status of ``cluster`` after synth of ``n_cities`` cities of 500 records into ``out``, ingest and
    classify."""
    assert main(["synth", "--seed", "2", "--out-dir", str(out), "--cities", str(n_cities), "--records", "500"]) == 0
    config = str(out / "pipeline.yaml")
    for stage in ("ingest", "classify"):
        assert main([stage, "--config", config]) == 0, stage
    return main(["cluster", "--config", config])


def test_cluster_with_k_equal_to_city_count(tmp_path):
    # two cities take k = 2, not temporal.N_CLUSTERS; silhouette is undefined at k == n, and the report has the part
    assert _cluster(tmp_path, 2) == 0
    info = read_json(tmp_path / "cluster.json")
    assert info["k"] == 2 and info["cities"] == ["city00", "city01"]
    assert info["silhouette"] is None
    assert main(["report", "--config", str(tmp_path / "pipeline.yaml")]) == 0
    assert read_json(tmp_path / "report.json")["cluster"] == info


def test_cluster_of_more_cities_than_clusters_scores_silhouette(tmp_path):
    assert _cluster(tmp_path, 4) == 0
    info = read_json(tmp_path / "cluster.json")
    assert info["k"] == 3 and len(info["cities"]) == 4
    assert -1.0 <= info["silhouette"] <= 1.0


def test_cluster_of_one_city_exits_1(tmp_path, capsys):
    assert _cluster(tmp_path, 1) == 1
    err = capsys.readouterr().err
    assert err == "snapgrid cluster: clustering needs at least 2 cities with driving activity, got 1\n"
    assert not (tmp_path / "cluster.json").exists()


def test_regress_stage(pipeline_dir):
    info = read_json(pipeline_dir / "regress.json")
    assert info["n"] == 130
    assert info["r_squared"] > 0.99
    assert len(info["terms"]) == 8
    assert info["terms"][0]["term"] == "intercept"


def test_report_merges_every_stage(pipeline_dir):
    report = read_json(pipeline_dir / "report.json")
    for part in ("ingest", "annotation", "classify", "extent", "spatial", "temporal", "cluster", "regress"):
        assert report[part] is not None, part
    assert report["cities"] == ["city00", "city01", "city02"]


def test_stages_rewrite_outputs_byte_identically(pipeline_dir):
    config = str(pipeline_dir / "pipeline.yaml")
    before = (pipeline_dir / "extent.json").read_bytes()
    report_before = (pipeline_dir / "report.json").read_bytes()
    assert main(["extent", "--config", config]) == 0
    assert main(["report", "--config", config]) == 0
    assert (pipeline_dir / "extent.json").read_bytes() == before
    assert (pipeline_dir / "report.json").read_bytes() == report_before


def _stage_argv(stage: str, out: Path) -> list[str]:
    """The stage over 3 cities x 200 records in ``out``, as ``snapgrid`` arguments."""
    if stage == "synth":
        return ["synth", "--seed", "4", "--out-dir", str(out), "--cities", "3", "--records", "200"]
    return [stage, "--config", str(out / "pipeline.yaml")]


def _program(argv: list[str], **env) -> dict:
    """``subprocess`` arguments that run the program, ``python -B -m snapgrid.cli``, with ``argv``; ``env`` updates the
    environment, in which PYTHONPATH finds this package first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(args=[sys.executable, "-B", "-m", "snapgrid.cli", *argv], env={**os.environ, **env})


def test_stages_do_not_depend_on_the_hash_seed(tmp_path):
    # one process per stage under PYTHONHASHSEED 0 and 1: an output that follows the str hash order differs
    # between processes, which an in-process run cannot see; the two pipelines run side by side
    first, second = tmp_path / "0", tmp_path / "1"
    for stage in STAGES:
        procs = [subprocess.Popen(**_program(_stage_argv(stage, out), PYTHONHASHSEED=out.name),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                 for out in (first, second)]
        errors = [proc.communicate()[1] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], (stage, errors)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert {"snaps.jsonl", "labels.csv", "heatmap_city02.csv", "report.json"} <= set(names)
    with np.load(first / CLEANED) as one, np.load(second / CLEANED) as other:  # the zip stores write times
        assert one.files == other.files and [k for k in one.files if not np.array_equal(one[k], other[k])] == []
    assert [n for n in names if n != CLEANED and (first / n).read_bytes() != (second / n).read_bytes()] == []


@pytest.mark.parametrize("outcome", [0, 1, 2, SystemExit(2)], ids=["ok", "failed", "usage", "argparse"])
def test_run_freezes_the_collector_before_and_after_main(monkeypatch, outcome):
    calls = []

    def stage():
        calls.append(("main", gc.isenabled()))
        if isinstance(outcome, SystemExit):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "main", stage)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(("freeze", None)))
    gc.disable()  # as under ``python -m snapgrid.cli``, through the imports
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run()
    finally:
        gc.enable()
    assert calls == [("freeze", None), ("main", True), ("freeze", None)]
    assert exited.value.code == (outcome.code if isinstance(outcome, SystemExit) else outcome)


def test_the_program_fails_as_main_does(pipeline_dir, tmp_path, capsys):
    # a stage whose input is missing, run in-process and as the program: the same status and stderr line
    argv = ["classify", "--config", str(pipeline_dir / "pipeline.yaml"), "--out-dir", str(tmp_path)]
    status, err = main(argv), capsys.readouterr().err
    proc = subprocess.run(**_program(argv), capture_output=True, text=True)
    assert (status, err.count("\n")) == (2, 1) and "cleaned.npz not found" in err
    assert (proc.returncode, proc.stderr, proc.stdout) == (status, err, "")
    assert list(tmp_path.iterdir()) == []  # no temp file, no output


def test_no_temp_files_left_after_pipeline(pipeline_dir):
    # np.savez would add ".npz" to a temp file's name
    assert sorted(p.name for p in pipeline_dir.glob("*.tmp*")) == []


def test_every_handed_on_file_is_written(pipeline_dir):
    # STAGES names, per stage, the files later stages read
    declared = [name for *_, files in STAGES.values() for name in files]
    assert "cleaned.npz" in declared and "classify.json" in declared
    assert [name for name in declared if not (pipeline_dir / name).exists()] == []


# ---------------------------------------------------------------------------
# all-or-nothing commits


def test_commit_failure_keeps_previous_artifacts(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"previous\n")

    def failing_writer(tmp):
        tmp.write_bytes(b"partial")
        raise OSError("disk full")

    # the first output is written in full before the second one fails
    with pytest.raises(OSError):
        _commit(tmp_path, {"out.json": {"new": 1}, "out.csv": failing_writer})
    assert target.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def failing_write_bytes(path, data):
    with open(path, "wb") as fh:
        fh.write(data[:7])
    raise OSError("disk full")


def test_failed_stage_write_keeps_previous_artifact(pipeline_dir, tmp_path, monkeypatch):
    for name in ("cleaned.npz", "classify.json"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    before = (tmp_path / "classify.json").read_bytes()

    config = str(pipeline_dir / "pipeline.yaml")
    with monkeypatch.context() as m:
        m.setattr(Path, "write_bytes", failing_write_bytes)
        # another rule, so a completed write would change the file
        rc = main(["classify", "--config", config, "--out-dir", str(tmp_path), "--rule", "single"])
    assert rc == 1
    assert (tmp_path / "classify.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["classify.json", "cleaned.npz"]


def test_ingest_failing_after_its_column_write_keeps_previous_artifacts(pipeline_dir, tmp_path, monkeypatch):
    # ingest writes cleaned.npz, then fails on ingest.json: neither changes, and no temp file is left
    run = tmp_path / "run"
    run.mkdir()
    for name in ("pipeline.yaml", "snaps.jsonl"):
        shutil.copy(pipeline_dir / name, run / name)
    (run / "cleaned.npz").write_bytes(b"previous")
    (run / "ingest.json").write_bytes(b"previous")
    with monkeypatch.context() as m:
        m.setattr(Path, "write_bytes", failing_write_bytes)
        assert main(["ingest", "--config", str(run / "pipeline.yaml")]) == 1
    assert sorted(p.name for p in run.iterdir()) == ["cleaned.npz", "ingest.json", "pipeline.yaml", "snaps.jsonl"]
    assert (run / "cleaned.npz").read_bytes() == (run / "ingest.json").read_bytes() == b"previous"


# ---------------------------------------------------------------------------
# config handling


def test_load_config_defaults():
    assert load_config(None) == {"seed": 0, "cities": {}, "_dir": Path.cwd()}


def test_synth_config_holds_every_setting_and_no_other(pipeline_dir):
    # a setting that leaves CHECKS must leave synth's pipeline.yaml too
    settings = {key for key in cli.CHECKS if "." not in key}
    assert set(yaml.safe_load((pipeline_dir / "pipeline.yaml").read_text())) == settings
    assert set(DEFAULT_CONFIG) <= settings


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/pipeline.yaml")


def test_load_config_malformed(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["synth", "--out-dir", str(tmp_path)])  # no --seed
    assert exc_info.value.code == 2


@pytest.mark.parametrize("flag, value", [("--cities", "0"), ("--cities", "-1"), ("--records", "0"),
                                         ("--records", "-5")])
def test_synth_size_below_its_least_exits_2_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["synth", "--seed", "1", "--out-dir", str(out), "--cities", "2", "--records", "20", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag} must be at least" in err and value in err
    assert not out.exists()


def test_synth_sample_size_is_not_a_flag(tmp_path):
    # every city's first synth.N_ANNOTATED records are rated; --annotated is an unknown argument
    with pytest.raises(SystemExit) as exc_info:
        main(["synth", "--seed", "1", "--out-dir", str(tmp_path), "--annotated", "5"])
    assert exc_info.value.code == 2
    assert not any(tmp_path.iterdir())


def test_missing_config_file_exits_2(tmp_path):
    rc = main(["grid", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2


@pytest.mark.parametrize("stage", ["classify", "extent", "spatial", "temporal", "cluster"])
def test_stage_out_of_order_exits_2(tmp_path, capsys, stage):
    path = tmp_path / "c.yaml"
    path.write_text("cities:\n  a:\n    tz: UTC\n    bbox: [0.0, 0.0, 0.01, 0.01]\n")
    assert main([stage, "--config", str(path)]) == 2  # ingest never ran
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"snapgrid {stage}: ")
    assert "cleaned.npz" in err and "run the ingest stage first" in err


_CITY = "cities:\n  a:\n    tz: UTC\n    bbox: [0.0, 0.0, 0.01, 0.01]\n"
_NIGHT_WINDOW, _CLUSTERING = "unknown config key 'night_window'", "unknown config key 'clustering'"


# The vote, its frame cutoff, the tile size, the night window and k are not
# settings: an old config that still sets them is rejected for an unknown key.
@pytest.mark.parametrize(
    "stage, setting, named",
    [
        ("classify", "voting: null\n", "voting"),
        ("classify", "voting:\n  cutoff: abc\n", "'voting'"),
        ("temporal", "night_window:\n  start: 18\n", _NIGHT_WINDOW),
        ("temporal", "night_window:\n  end_hour: 24\n", _NIGHT_WINDOW),
        ("grid", "tile_size_m: abc\n", "tile_size_m"),
        ("spatial", "tile_size_m: 0\n", "tile_size_m"),
        ("grid", "tile_size_m: -5\n", "tile_size_m"),
        ("cluster", "clustering:\n  k: abc\n", _CLUSTERING),
        ("report", "cities: null\n", "cities"),
        ("classify", "voting:\n  rule: majority\n  rul: single\n", "'voting'"),
        ("grid", "tile_size: 500\n", "'tile_size'"),
        ("cluster", "clustering:\n  n_clusters: 2\n", _CLUSTERING),
        ("classify", "voting:\n  cutoff: 1.5\n", "'voting'"),
        ("classify", "voting:\n  cutoff: 1.0\n", "'voting'"),
        ("classify", "voting:\n  cutoff: .nan\n", "'voting'"),
        ("classify", "voting:\n  cutoff: .inf\n", "'voting'"),
        ("classify", "voting:\n  cutoff: -3\n", "'voting'"),
        ("cluster", "clustering:\n  k: 0\n", _CLUSTERING),
        ("cluster", "clustering:\n  k: -2\n", _CLUSTERING),
        ("temporal", "night_window:\n  start_hour: 2\n  end_hour: 2\n", _NIGHT_WINDOW),
        # YAML's true and false are not numbers, though Python reads them as 1 and 0
        ("cluster", "clustering:\n  k: true\n", _CLUSTERING),
        ("temporal", "night_window:\n  start_hour: true\n", _NIGHT_WINDOW),
        ("cluster", "seed: true\n", "seed"),
        ("grid", "tile_size_m: true\n", "tile_size_m"),
        ("classify", "voting:\n  cutoff: false\n", "'voting'"),
        ("grid", "cities:\n  a:\n    tz: UTC\n    bbox: [0.0, 0.0, true, 0.01]\n", "cities.a.bbox.2"),
    ],
    ids=["voting-null", "cutoff-text", "window-key", "hour-24", "tile-text", "tile-zero",
         "tile-negative", "k-text", "cities-null", "voting-key", "top-level-key", "clustering-key",
         "cutoff-above-1", "cutoff-1", "cutoff-nan", "cutoff-inf", "cutoff-negative",
         "k-zero", "k-negative", "window-whole-day", "k-bool", "hour-bool", "seed-bool", "tile-bool",
         "cutoff-bool", "bbox-bool"],
)
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, stage, setting, named):
    # a bad setting fails before any grid is built: a 1 m tile would mean 10^8 tiles per city
    monkeypatch.setattr(cli, "build_grid", lambda *args: pytest.fail("a grid was built"))
    # cities first so a later "cities" setting replaces them
    path = tmp_path / "c.yaml"
    path.write_text(_CITY + setting)
    assert main([stage, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"snapgrid {stage}: ")
    assert named in err


_BBOX = "    tz: UTC\n    bbox: [0.0, 0.0, 0.01, 0.01]\n"


@pytest.mark.parametrize(
    "setting, named",
    [
        ("clustering:\n  k: 2.7\n", _CLUSTERING),
        ("seed: 1.9\n", "seed"),
        ("night_window:\n  start_hour: 18.5\n", _NIGHT_WINDOW),
        ("cities:\n  false:\n" + _BBOX, "cities.false"),
        ("cities:\n  123:\n" + _BBOX, "cities.123"),
        ("cities:\n  a:\n    tz: Mars/Base\n    bbox: [0.0, 0.0, 0.01, 0.01]\n", "cities.a.tz"),
        ("voting:\n  rule: majority\n", "'voting'"),
        ("tile_size_m: 1000.0\n", "'tile_size_m'"),
        ('cities:\n  "a\\0":\n' + _BBOX, "cities"),
        # the last tile's centre would lie past the pole or the antimeridian
        ("cities:\n  a:\n    tz: UTC\n    bbox: [89.99, 0.0, 90.0, 1.0]\n", "cities.a.bbox"),
        ("cities:\n  a:\n    tz: UTC\n    bbox: [10.0, 179.99, 10.01, 180.0]\n", "cities.a.bbox"),
    ],
    ids=["k-fraction", "seed-fraction", "hour-fraction", "city-key-bool", "city-key-int", "tz-unknown",
         "voting-section", "tile-size", "city-key-nul", "bbox-over-pole", "bbox-over-antimeridian"],
)
@pytest.mark.parametrize("stage", [stage for stage in STAGES if stage != "synth"])
def test_bad_setting_exits_2_at_every_stage(tmp_path, capsys, stage, setting, named):
    # load_config checks every setting, whether or not the stage reads it
    path = tmp_path / "c.yaml"
    path.write_text(_CITY + setting)
    assert main([stage, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"snapgrid {stage}: ")
    assert named in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


def test_ingest_of_mostly_corrupt_corpus_names_file_and_line(tmp_path, capsys):
    good = {"id": "a-0", "ts_utc": "2025-03-03T12:00:00Z", "lat": 0.0, "lon": 0.0, "city_id": "a"}
    (tmp_path / "bad.jsonl").write_text(json.dumps(good) + "\n{truncated\nnot json\n")
    path = tmp_path / "c.yaml"
    path.write_text("snaps: bad.jsonl\n" + _CITY)
    assert main(["ingest", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "bad.jsonl" in err and "2 of 3 lines" in err and "line 2" in err
    assert not (tmp_path / "cleaned.npz").exists()


def test_ingest_stops_on_a_line_the_bulk_checks_reject_and_fields_accepts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(records, "_fields", lambda line: None)  # a per-line check that accepts every line
    good = {"id": "a-0", "ts_utc": "2025-03-03T12:00:00Z", "lat": 0.0, "lon": 0.0, "city_id": "a"}
    (tmp_path / "snaps.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in [good, {**good, "lat": 91}, good]))
    path = tmp_path / "c.yaml"
    path.write_text("snaps: snaps.jsonl\n" + _CITY)
    assert main(["ingest", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("snapgrid ingest: line 2: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "snaps.jsonl"]


@pytest.mark.parametrize("bad_line", [2, 7], ids=["first-range", "second-range"])
def test_a_worker_fault_exits_1_naming_the_line_and_leaves_nothing(tmp_path, capsys, monkeypatch, bad_line):
    monkeypatch.setattr(records, "_fields", lambda line: None)  # a per-line check that accepts every line
    monkeypatch.setattr(records, "_WORKERS", 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(fork()) or forked[-1])
    good = {"id": "a-0", "ts_utc": "2025-03-03T12:00:00Z", "lat": 0.0, "lon": 0.0, "city_id": "a"}
    objs = [good] * 8
    objs[bad_line - 1] = {**good, "lat": 91}
    (tmp_path / "snaps.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    path = tmp_path / "c.yaml"
    path.write_text("snaps: snaps.jsonl\n" + _CITY)
    assert main(["ingest", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"snapgrid ingest: line {bad_line}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "snaps.jsonl"]
    assert len(forked) == 1 and forked[0] > 0
    with pytest.raises(ChildProcessError):  # reaped: no such child is left
        os.waitpid(forked[0], os.WNOHANG)


def test_report_with_no_stage_output_exits_2(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(_CITY)
    assert main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"snapgrid report: {tmp_path} ")
    assert "run the ingest stage first" in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


@pytest.fixture(scope="module")
def two_city_inputs(tmp_path_factory):
    """A 2-city synth run: its config, annotations.csv and city_stats.csv."""
    out = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "--seed", "3", "--out-dir", str(out), "--cities", "2", "--records", "50"]) == 0
    return out


@pytest.mark.parametrize("stage, key", [("ingest", "snaps"), ("annotate", "annotations"), ("regress", "city_stats")])
def test_missing_input_file_exits_2_naming_path_and_key(two_city_inputs, tmp_path, capsys, stage, key):
    shutil.copy(two_city_inputs / "pipeline.yaml", tmp_path)  # without the inputs it names
    name = yaml.safe_load((tmp_path / "pipeline.yaml").read_text())[key]
    assert main([stage, "--config", str(tmp_path / "pipeline.yaml")]) == 2
    err = capsys.readouterr().err
    assert err == f"snapgrid {stage}: {tmp_path.resolve() / name} not found; check the config key {key!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pipeline.yaml"]


def _cell(rows, row, column, value):
    """``rows``, a CSV's header and rows, with ``column`` of data row ``row`` (1-based) set to ``value``."""
    rows[row][rows[0].index(column)] = value
    return rows


@pytest.mark.parametrize(
    "stage, name, damage, message",
    [
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 1, "total_snaps", "-1"),
         "line 2: rc000: snap counts must be nonnegative"),
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 3, "driving_snaps", "abc"),
         "line 4: could not convert string to float: 'abc'"),
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 5, "total_snaps", "nan"),
         "line 6: 'nan' is not a finite number"),
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 130, "driving_snaps", "inf"),
         "line 131: 'inf' is not a finite number"),
        ("regress", "city_stats.csv", lambda rows: [row[:1] + row[2:] for row in rows], "no 'total_snaps' column"),
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 2, "population", "-5"),
         "line 3: rc001: population must be nonnegative"),
        ("regress", "city_stats.csv", lambda rows: rows[:1], "no city has the full set of design fields"),
        ("annotate", "annotations.csv", lambda rows: [row[1:] for row in rows], "no 'item_id' column"),
        ("annotate", "annotations.csv", lambda rows: rows[:1], "need at least 2 categories"),
        ("annotate", "annotations.csv", lambda rows: rows[:1] + [row[:2] + ["driving"] for row in rows[1:]],
         "need at least 2 categories"),
        ("annotate", "annotations.csv",
         lambda rows: rows[:1] + [row[:2] + [row[2].replace("driving", "walking")] for row in rows[1:]],
         "unknown category 'driving'"),
        ("annotate", "annotations.csv", lambda rows: rows[:2] + [rows[2][:2]] + rows[3:],
         "line 3: a row needs 3 fields"),
        # a cell holding "\udcff" is written as the byte 0xff, which is not UTF-8
        ("annotate", "annotations.csv", lambda rows: _cell(rows, 2, "category", "\udcff"), "not UTF-8 text"),
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 3, "city_id", "rc\udcff"), "not UTF-8 text"),
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 1, "developing", "maybe"),
         "line 2: developing must be one of true/false/1/0/yes/no or empty, got 'maybe'"),
        ("regress", "city_stats.csv", lambda rows: _cell(rows, 4, "developing", "flase"),
         "line 5: developing must be one of true/false/1/0/yes/no or empty, got 'flase'"),
    ],
    ids=["count-negative", "count-text", "count-nan", "count-inf", "no-total-snaps", "population-negative",
         "no-cities", "no-item-id", "no-rows", "one-category", "no-driving", "short-row", "annotations-not-utf8",
         "city-stats-not-utf8", "developing-maybe", "developing-typo"],
)
def test_malformed_csv_input_fails_in_one_line(two_city_inputs, tmp_path, capsys, stage, name, damage, message):
    inputs = ["annotations.csv", "city_stats.csv", "pipeline.yaml"]
    for input_name in inputs:
        shutil.copy(two_city_inputs / input_name, tmp_path)
    path = tmp_path / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", errors="surrogateescape") as fh:
        csv.writer(fh).writerows(damage(rows))
    assert main([stage, "--config", str(tmp_path / "pipeline.yaml")]) == 1
    assert capsys.readouterr().err == f"snapgrid {stage}: {path.resolve()}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def test_threshold_rule_requires_threshold(pipeline_dir):
    config = str(pipeline_dir / "pipeline.yaml")
    rc = main(["classify", "--config", config, "--rule", "threshold"])
    assert rc == 2


def test_threshold_without_rule_exits_2(pipeline_dir, capsys):
    # the default rule is majority; a threshold must not be silently ignored
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["classify", "--config", config, "--threshold", "30"]) == 2
    assert "threshold_pct only applies to threshold voting" in capsys.readouterr().err


def test_classify_without_ingest_exits_2(pipeline_dir, tmp_path, capsys):
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["classify", "--config", config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "cleaned.npz" in err and "ingest" in err
    assert not (tmp_path / "classify.json").exists()


def _columns(path) -> dict:
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _damage(cleaned: Path, damage: str) -> None:
    """Damage the column file ``cleaned`` in place."""
    if damage == "truncated":
        cleaned.write_bytes(cleaned.read_bytes()[:-100])
        return
    cols = _columns(cleaned)
    if damage == "missing_member":
        del cols["lat"]
    elif damage == "mismatched_length":
        cols["ts"] = cols["ts"][:-1]
    elif damage == "bad_offsets":
        cols["score_offsets"][2] = cols["score_offsets"][1] - 1
    elif damage == "object_array":
        cols["cities"] = cols["cities"].astype(object)
    elif damage == "city_code":
        cols["city"][-1] = len(cols["cities"])
    elif damage == "label_code":
        cols["label"][0] = 7
    with open(cleaned, "wb") as fh:
        np.savez(fh, **cols)


@pytest.mark.parametrize(
    "damage", ["truncated", "missing_member", "mismatched_length", "bad_offsets", "object_array", "city_code",
               "label_code"]
)
def test_classify_with_corrupt_cleaned_exits_2(pipeline_dir, tmp_path, capsys, damage):
    cleaned = tmp_path / "cleaned.npz"
    shutil.copy(pipeline_dir / "cleaned.npz", cleaned)
    _damage(cleaned, damage)
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["classify", "--config", config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cleaned.npz" in err and "re-run the ingest stage" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cleaned.npz"]


def _kept_records(run: Path) -> list[Record]:
    """The records of ``run``'s corpus that ingest keeps: every city is configured, the deleted go."""
    recs = [record(json.loads(line)) for line in (run / "snaps.jsonl").read_text().splitlines()]
    return [rec for rec in recs if not rec.deleted]


def test_ingest_writes_the_kept_records_as_columns(pipeline_dir):
    # save leaves out the in-memory columns
    want = {name: col for name, col in vars(columns(_kept_records(pipeline_dir))).items()
            if name not in ("duration_s", "deleted")}
    got = _columns(pipeline_dir / "cleaned.npz")
    assert want.keys() == got.keys()
    for name in want:
        assert want[name].dtype == got[name].dtype and np.array_equal(want[name], got[name]), name


def test_ingest_counts_a_line_that_is_not_utf8_as_bad(two_city_inputs, tmp_path, capsys):
    shutil.copy(two_city_inputs / "pipeline.yaml", tmp_path)
    lines = (two_city_inputs / "snaps.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "snaps.jsonl").write_bytes(b"".join(lines[:3]) + b"\xff\n" + b"".join(lines[3:]))
    assert main(["ingest", "--config", str(tmp_path / "pipeline.yaml")]) == 0
    info = read_json(tmp_path / "ingest.json")
    assert (info["parsed"], info["parse_failures"]) == (100, 1)
    assert capsys.readouterr().out.startswith("ingest: parsed 100 (1 bad lines, ")


def test_ingest_of_no_records_rates_no_deletions(two_city_inputs, tmp_path):
    shutil.copy(two_city_inputs / "pipeline.yaml", tmp_path)
    (tmp_path / "snaps.jsonl").write_text("")
    assert main(["ingest", "--config", str(tmp_path / "pipeline.yaml")]) == 0
    info = read_json(tmp_path / "ingest.json")
    assert (info["parsed"], info["deleted"], info["deletion_rate_pct"], info["kept"]) == (0, 0, 0.0, 0)


def _reader_fails_naming_classify(stage, config, out_dir, capsys):
    assert main([stage, "--config", config, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "classify.json" in err and "the classify stage" in err


READERS = ("extent", "spatial", "temporal", "cluster")


@pytest.mark.parametrize(
    "damage",
    ["missing", "malformed", "rule", "cutoff", "cutoff_text", "cutoff_other", "threshold_float", "crc", "swapped"],
)
@pytest.mark.parametrize("stage", READERS)
def test_reader_with_bad_classify_json_exits_2(pipeline_dir, tmp_path, capsys, stage, damage):
    info = read_json(pipeline_dir / "classify.json")
    if damage == "swapped":
        # the same records in another order are another corpus to the ids' CRC
        recs = _kept_records(pipeline_dir)
        recs[0], recs[1] = recs[1], recs[0]
        columns(recs).save(tmp_path / "cleaned.npz")
    else:
        shutil.copy(pipeline_dir / "cleaned.npz", tmp_path / "cleaned.npz")
    if damage == "rule":
        info["rule"] = "plurality"
    elif damage == "cutoff":
        info["cutoff"] = 1.5
    elif damage == "cutoff_text":
        info["cutoff"] = "0.4"
    elif damage == "cutoff_other":
        info["cutoff"] = 0.4  # a valid number, but not the cutoff classify votes at
    elif damage == "threshold_float":
        info["rule"], info["threshold_pct"] = "threshold", 30.0
    elif damage == "crc":
        info["scored_ids_crc32"] ^= 1
    if damage == "malformed":
        (tmp_path / "classify.json").write_text("[]")
    elif damage != "missing":
        (tmp_path / "classify.json").write_text(json.dumps(info))
    _reader_fails_naming_classify(stage, str(pipeline_dir / "pipeline.yaml"), tmp_path, capsys)
    assert not (tmp_path / f"{stage}.json").exists()


def test_ids_crc32_in_chunks_is_the_crc_of_the_whole_list(pipeline_dir, monkeypatch):
    cols = records.SnapColumns.load(pipeline_dir / "cleaned.npz")
    rows = cols.scored & (np.arange(len(cols)) % 3 != 1)  # gaps inside every chunk
    ids = [cols.ids[a:b].tobytes() for a, b in zip(cols.id_offsets[:-1].tolist(), cols.id_offsets[1:].tolist())]
    want = zlib.crc32(b"".join(b"%d:%b" % (len(i), i) for i, keep in zip(ids, rows.tolist()) if keep))
    assert cli._ids_crc32(cols, rows) == want
    monkeypatch.setattr(cli, "_CRC_CHUNK", 7)
    assert rows.sum() > 2 * 7
    assert cli._ids_crc32(cols, rows) == want
    assert cli._ids_crc32(cols, np.zeros(len(cols), dtype=bool)) == zlib.crc32(b"") == 0


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ids=st.lists(st.text(max_size=4) | st.text(min_size=10, max_size=14)
                    | st.text("\u00e9\u4e2d\U0001f600", min_size=4), max_size=30), data=st.data())
def test_ids_crc32_is_the_crc_of_the_ids_joined_one_at_a_time(monkeypatch, chunk, ids, data):
    # ids of 10 or more bytes get a two-digit prefix; non-ASCII ones have more bytes than characters
    monkeypatch.setattr(cli, "_CRC_CHUNK", chunk)
    cols = columns([Record(id=i, ts_utc=0, lat=0.0, lon=0.0, city_id="x") for i in ids])
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))), dtype=bool)
    for picked in (rows, np.zeros(len(ids), dtype=bool), np.ones(len(ids), dtype=bool)):
        assert cli._ids_crc32(cols, picked) == record_oracle.ids_crc32(cols, picked, chunk)


def test_readers_apply_the_rule_classify_recorded(pipeline_dir, tmp_path):
    # the readers take no rule of their own; they follow classify.json
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    config = str(run / "pipeline.yaml")
    for argv in (["classify", "--rule", "single"], ["extent"], ["temporal"]):
        assert main([*argv, "--config", config]) == 0, argv
    classify = read_json(run / "classify.json")
    tp, fp, _fn, _tn = classify["eval"]["confusion"]
    assert read_json(run / "extent.json")["overall"] == (tp + fp) / classify["n_classified"]
    assert sum(read_json(run / "temporal.json")["pooled"]["profile"]) == tp + fp
    assert tp + fp > read_json(pipeline_dir / "classify.json")["eval"]["confusion"][0]


def test_a_city_without_driving_records_is_named_by_temporal_and_cluster(pipeline_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    cfg = yaml.safe_load((run / "pipeline.yaml").read_text())
    cfg["cities"]["zz"] = {"bbox": [10.0, 10.0, 10.1, 10.1], "tz": "UTC"}
    (run / "pipeline.yaml").write_text(yaml.safe_dump(cfg))
    config = str(run / "pipeline.yaml")
    capsys.readouterr()
    assert main(["temporal", "--config", config]) == 1
    assert capsys.readouterr().err == "snapgrid temporal: city zz: no driving records; uplift undefined\n"
    before = read_json(run / "cluster.json")
    assert main(["cluster", "--config", config]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1 and out.endswith("; left out zz: no driving records\n")
    assert read_json(run / "cluster.json") == before  # the three cities with driving records, as without zz


def _reingest_another_corpus(pipeline_dir, tmp_path, capsys) -> Path:
    """A copy of the finished run whose ingest was re-run on a smaller corpus."""
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    assert main(["synth", "--seed", "6", "--out-dir", str(tmp_path / "small"),
                 "--cities", "3", "--records", "50"]) == 0
    shutil.copy(tmp_path / "small" / "snaps.jsonl", run / "snaps.jsonl")
    assert main(["ingest", "--config", str(run / "pipeline.yaml")]) == 0
    capsys.readouterr()
    return run


def test_reingest_of_another_corpus_makes_readers_exit_2(pipeline_dir, tmp_path, capsys):
    run = _reingest_another_corpus(pipeline_dir, tmp_path, capsys)
    config = str(run / "pipeline.yaml")
    before = (run / "extent.json").read_bytes()
    for stage in READERS:
        _reader_fails_naming_classify(stage, config, run, capsys)
    assert (run / "extent.json").read_bytes() == before


def test_report_over_stale_classify_exits_2(pipeline_dir, tmp_path, capsys):
    run = _reingest_another_corpus(pipeline_dir, tmp_path, capsys)
    before = (run / "report.json").read_bytes()
    assert main(["report", "--config", str(run / "pipeline.yaml")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "classify.json" in err and "ingest.json" in err
    assert "re-run classify" in err
    assert (run / "report.json").read_bytes() == before


@pytest.mark.parametrize(
    "part, stage, text",
    [
        ("extent", "extent", "{"),
        ("annotation", "annotate", "{"),
        ("classify", "classify", '{"x": 1}'),
        ("classify", "classify", "[]"),
        ("ingest", "ingest", '{"kept": "many"}'),
        ("spatial", "spatial", "null"),
    ],
    ids=["extent-extent", "annotation-annotate", "classify-no-counts", "classify-list", "ingest-kept-text",
         "spatial-null"],
)
def test_report_with_corrupt_part_exits_2(pipeline_dir, tmp_path, capsys, part, stage, text):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    (run / f"{part}.json").write_text(text)
    before = (run / "report.json").read_bytes()
    assert main(["report", "--config", str(run / "pipeline.yaml")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{part}.json" in err and f"re-run the {stage} stage" in err
    assert (run / "report.json").read_bytes() == before


def test_labels_round_trip_ids_with_commas_and_quotes(tmp_path):
    ids = ["a,1", 'b"2', "c-3"]
    with open(tmp_path / "ratings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("item_id", "rater_id", "category"))
        writer.writerows((i, f"r{j}", "driving" if j else "non_driving") for i in ids for j in range(3))
    (tmp_path / "c.yaml").write_text("annotations: ratings.csv\n")
    assert main(["annotate", "--config", str(tmp_path / "c.yaml")]) == 0
    with open(tmp_path / "labels.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["item_id", "label", "support"]
    assert sorted(rows[1:]) == [[i, "driving", "2"] for i in sorted(ids)]


def _save_cleaned(out_dir: Path, recs) -> None:
    columns(recs).save(out_dir / "cleaned.npz")


def test_classify_hand_off_round_trips_ids_with_commas_and_quotes(tmp_path):
    # classify hands its rule on, and extent finds the same scored records, whatever their ids hold
    (tmp_path / "c.yaml").write_text("seed: 0\n")
    base = {"ts_utc": 1741003200, "lat": 1.0, "lon": 1.0, "city_id": "a"}
    _save_cleaned(tmp_path, [
        Record(**base, id='a,"0"', frame_scores=(0.9, 0.8)),
        Record(**base, id="a-1"),
        Record(**base, id="a\n2", frame_scores=(0.1,)),
        Record(**base, id="\ud800", frame_scores=(0.2,)),
    ])
    config = str(tmp_path / "c.yaml")
    assert main(["classify", "--config", config]) == 0
    assert main(["extent", "--config", config]) == 0
    assert read_json(tmp_path / "classify.json")["n_classified"] == 3
    assert read_json(tmp_path / "extent.json")["per_city"] == {"a": 1 / 3}


def test_stages_take_no_jobs_flag(capsys):
    # nor a flag that repeats a config key (k, seed, input paths) or a fixed synth setting
    parser = build_parser()
    synth = ["synth", "--seed", "1", "--out-dir", "out"]
    cases = [[stage, "--jobs", "2"] for stage in STAGES if stage != "synth"]
    cases += [["cluster", "--k", "2"], ["cluster", "--seed", "1"], ["annotate", "--annotations", "a.csv"],
              ["regress", "--stats", "s.csv"], synth + ["--flip-prob", "0.2"], synth + ["--reg-sigma", "0.2"]]
    for argv in cases:
        with pytest.raises(SystemExit) as exc_info:
            parser.parse_args(argv)
        assert exc_info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_ingest_takes_no_format_flag():
    with pytest.raises(SystemExit) as exc_info:
        build_parser().parse_args(["ingest", "--format", "csv"])
    assert exc_info.value.code == 2


def test_invalid_threshold_choice_exits_2(pipeline_dir):
    config = str(pipeline_dir / "pipeline.yaml")
    with pytest.raises(SystemExit) as exc_info:
        main(["classify", "--config", config, "--rule", "threshold", "--threshold", "55"])
    assert exc_info.value.code == 2


def _write_classified(out_dir, points, label):
    """``cleaned.npz`` with one scored record per ``(city, lat, lon)``, classified ``label``.

    Each record's one frame score puts it on ``label``'s side of the cutoff,
    and classify runs under ``out_dir/c.yaml``.
    """
    score = 0.9 if label == "driving" else 0.1
    _save_cleaned(out_dir, [
        Record(id=f"{city}-{i}", ts_utc=1741003200, lat=lat, lon=lon, city_id=city, frame_scores=(score,))
        for i, (city, lat, lon) in enumerate(points)
    ])
    assert main(["classify", "--config", str(out_dir / "c.yaml")]) == 0


def test_extent_with_no_driving_labels(tmp_path):
    (tmp_path / "c.yaml").write_text("seed: 0\n")
    _write_classified(tmp_path, [("a", 1.0, 1.0)] * 3, "non_driving")
    rc = main(["extent", "--config", str(tmp_path / "c.yaml")])
    assert rc == 0
    info = read_json(tmp_path / "extent.json")
    assert info["overall"] == 0.0
    assert info["per_city"] == {"a": 0.0}


def test_spatial_error_names_the_city(tmp_path, capsys):
    # city a's driving clips spread over four tiles; city b's sit in one tile,
    # which no distribution can be fitted to
    config = tmp_path / "c.yaml"
    config.write_text(
        "cities:\n"
        "  a:\n    tz: UTC\n    bbox: [0.0, 0.0, 0.05, 0.05]\n"
        "  b:\n    tz: UTC\n    bbox: [1.0, 1.0, 1.05, 1.05]\n"
    )
    spread = [("a", 0.0045 + 0.009 * row, 0.0045) for row in range(4) for _ in range(row + 1)]
    _write_classified(tmp_path, spread + [("b", 1.0045, 1.0045)] * 3, "driving")
    assert main(["spatial", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("snapgrid spatial: city b: ")
    assert not (tmp_path / "spatial.json").exists()
    assert not (tmp_path / "heatmap_a.csv").exists()


def test_failed_spatial_leaves_every_artifact_unchanged(tmp_path, capsys):
    config = tmp_path / "c.yaml"
    config.write_text(
        "cities:\n"
        "  a:\n    tz: UTC\n    bbox: [0.0, 0.0, 0.05, 0.05]\n"
        "  b:\n    tz: UTC\n    bbox: [1.0, 1.0, 1.05, 1.05]\n"
    )

    def spread(city, offset, rows):
        # row r of tiles holds r + 1 driving clips
        return [(city, offset + 0.0045 + 0.009 * r, offset + 0.0045) for r in rows for _ in range(r + 1)]

    _write_classified(tmp_path, spread("a", 0.0, range(4)) + spread("b", 1.0, range(4)), "driving")
    assert main(["spatial", "--config", str(config)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert {"heatmap_a.csv", "heatmap_b.csv", "spatial.json"} <= before.keys()

    # a's heatmap would change; b, the last city, has one driving tile and cannot be fitted
    _write_classified(tmp_path, spread("a", 0.0, range(1, 5)) + [("b", 1.0045, 1.0045)] * 3, "driving")
    inputs = {name: (tmp_path / name).read_bytes() for name in ("cleaned.npz", "classify.json")}
    assert main(["spatial", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("snapgrid spatial: city b: ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {**before, **inputs}
