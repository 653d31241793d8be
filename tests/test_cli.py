"""Pipeline driver: config handling, stage outputs, exit codes, idempotence."""

import json
import shutil

import pytest

from snapgrid import records
from snapgrid.cli import DEFAULT_CONFIG, _atomic_write, build_parser, load_config, main
from snapgrid.errors import ConfigError


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
            "--annotated", "150",
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
        ["cluster", "--config", config, "--k", "2"],
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


def test_annotate_stage(pipeline_dir):
    info = read_json(pipeline_dir / "annotation.json")
    assert info["n_items"] == 450
    assert info["n_raters"] == 3
    assert 0.0 < info["fleiss_kappa"] <= 1.0
    labels = (pipeline_dir / "labels.csv").read_text().strip().split("\n")
    assert labels[0] == "item_id,label,support"
    assert len(labels) == 451


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
    assert info["k"] == 2
    assert set(info["labels"]) == {"city00", "city01", "city02"}
    assert -1.0 <= info["silhouette"] <= 1.0
    assert set(info["embedding"]) == {"city00", "city01", "city02"}


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


def test_no_temp_files_left_after_pipeline(pipeline_dir):
    assert sorted(p.name for p in pipeline_dir.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# atomic writes


def test_atomic_write_failure_keeps_previous_artifact(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"previous\n")

    def failing_writer(tmp):
        tmp.write_bytes(b"partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        _atomic_write(target, failing_writer)
    assert target.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_stage_write_keeps_previous_artifact(pipeline_dir, tmp_path, monkeypatch):
    for name in ("cleaned.jsonl", "labeled.jsonl"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    before = (tmp_path / "labeled.jsonl").read_bytes()

    def failing_write_snaps(recs, sink, format="jsonl"):
        with open(sink, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(records, "write_snaps", failing_write_snaps)
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["classify", "--config", config, "--out-dir", str(tmp_path)]) == 1
    assert (tmp_path / "labeled.jsonl").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cleaned.jsonl", "labeled.jsonl"]


# ---------------------------------------------------------------------------
# config handling


def test_load_config_defaults():
    cfg = load_config(None)
    for key in DEFAULT_CONFIG:
        assert key in cfg
    assert cfg["voting"]["rule"] == "majority"


def test_load_config_merges_nested_sections(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("seed: 9\nvoting:\n  cutoff: 0.4\n")
    cfg = load_config(str(path))
    assert cfg["seed"] == 9
    assert cfg["voting"]["cutoff"] == 0.4
    assert cfg["voting"]["rule"] == "majority"  # default preserved
    assert cfg["_dir"] == tmp_path.resolve()


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


def test_missing_config_file_exits_2(tmp_path):
    rc = main(["grid", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2


def test_stage_out_of_order_exits_2(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("cities:\n  a:\n    tz: UTC\n    bbox: [0.0, 0.0, 0.01, 0.01]\n")
    rc = main(["extent", "--config", str(path)])  # classify never ran
    assert rc == 2


def test_threshold_rule_requires_threshold(pipeline_dir):
    config = str(pipeline_dir / "pipeline.yaml")
    rc = main(["classify", "--config", config, "--rule", "threshold"])
    assert rc == 2


def test_threshold_without_rule_exits_2(pipeline_dir, capsys):
    # the config's rule is majority; a threshold must not be silently ignored
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["classify", "--config", config, "--threshold", "30"]) == 2
    assert "threshold_pct only applies to threshold voting" in capsys.readouterr().err


def test_classify_without_ingest_exits_2(pipeline_dir, tmp_path, capsys):
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["classify", "--config", config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "cleaned.jsonl" in err and "ingest" in err
    assert not (tmp_path / "labeled.jsonl").exists()


def test_classify_with_corrupt_cleaned_exits_2(pipeline_dir, tmp_path, capsys):
    cleaned = tmp_path / "cleaned.jsonl"
    shutil.copy(pipeline_dir / "cleaned.jsonl", cleaned)
    with open(cleaned, "a") as fh:
        fh.write("{truncated\n")
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["classify", "--config", config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "cleaned.jsonl" in err and "ingest" in err
    assert not (tmp_path / "labeled.jsonl").exists()


def test_stages_take_no_jobs_flag():
    parser = build_parser()
    for stage in ("grid", "ingest", "annotate", "classify", "extent",
                  "spatial", "temporal", "cluster", "regress", "report"):
        with pytest.raises(SystemExit) as exc_info:
            parser.parse_args([stage, "--jobs", "2"])
        assert exc_info.value.code == 2, stage


def test_invalid_threshold_choice_exits_2(pipeline_dir):
    config = str(pipeline_dir / "pipeline.yaml")
    with pytest.raises(SystemExit) as exc_info:
        main(["classify", "--config", config, "--rule", "threshold", "--threshold", "55"])
    assert exc_info.value.code == 2


def test_extent_with_no_driving_labels(tmp_path):
    (tmp_path / "c.yaml").write_text("seed: 0\n")
    lines = []
    for i in range(3):
        lines.append(
            json.dumps(
                {
                    "id": f"a-{i}",
                    "ts_utc": "2025-03-03T12:00:00Z",
                    "lat": 1.0,
                    "lon": 1.0,
                    "city_id": "a",
                    "label": "non_driving",
                }
            )
        )
    (tmp_path / "labeled.jsonl").write_text("\n".join(lines) + "\n")
    rc = main(["extent", "--config", str(tmp_path / "c.yaml")])
    assert rc == 0
    info = read_json(tmp_path / "extent.json")
    assert info["overall"] == 0.0
    assert info["per_city"] == {"a": 0.0}


def test_cluster_with_k_equal_to_city_count(pipeline_dir):
    # silhouette is undefined at k == n; the stage should still succeed
    config = str(pipeline_dir / "pipeline.yaml")
    assert main(["cluster", "--config", config, "--k", "3"]) == 0
    info = read_json(pipeline_dir / "cluster.json")
    assert info["k"] == 3
    assert info["silhouette"] is None
