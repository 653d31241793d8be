"""The benchmark's tracer wraps snapgrid functions by name; every name must resolve.

``perfbench/traced_stage.py`` rebinds the functions in its target tables on
the nine ``snapgrid.*`` modules that ``import snapgrid.cli`` loads, and a
stage run under it fails when one is missing. Its counters read the
wrapped calls' arguments and results, so a changed call shape fails the
stage too; the smoke test runs synth and every stage under it. The script
is read or run with ``-B``, never imported, so nothing is written beside
it.

Importing the CLI must not load scipy or OpenSSL's ``_hashlib``: every
stage process pays for what that import loads, and only ``regress`` uses
scipy.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

import snapgrid
from snapgrid.cli import STAGES

TRACED_STAGE = Path(__file__).resolve().parents[1] / "perfbench" / "traced_stage.py"
MODULES = ("cli", "records", "voting", "geo", "spatial", "temporal", "annotation", "regression", "synth")


def test_every_traced_function_exists():
    tables = runpy.run_path(str(TRACED_STAGE), run_name="traced_stage")
    targets = tables["STAGE_TARGETS"] + tables["STAGE_HOT_TARGETS"] + tables["SYNTH_TARGETS"]
    for mod, fn_name, _span, _counter in targets:
        assert mod in MODULES, mod
        assert callable(getattr(importlib.import_module(f"snapgrid.{mod}"), fn_name, None)), (mod, fn_name)


def _env():
    src = str(Path(snapgrid.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.fixture(scope="module")
def modules_after_cli_import():
    """``sys.modules`` of a fresh interpreter after ``import snapgrid.cli``."""
    return subprocess.run(
        [sys.executable, "-c", "import sys, snapgrid.cli; print(' '.join(sorted(sys.modules)))"],
        env=_env(), capture_output=True, text=True, check=True,
    ).stdout.split()


def test_importing_cli_loads_every_traced_module(modules_after_cli_import):
    assert [m for m in MODULES if f"snapgrid.{m}" not in modules_after_cli_import] == []


def test_importing_cli_loads_no_scipy(modules_after_cli_import):
    assert "scipy" not in modules_after_cli_import


def test_importing_cli_loads_no_hashlib(modules_after_cli_import):
    # importing hashlib loads OpenSSL, 3.8 MB more in every stage process; ids are checked with zlib's CRC-32
    assert "_hashlib" not in modules_after_cli_import


# stage -> counters that the traced calls of that stage feed (the readers feed voting.frames too)
COUNTERS = {
    "synth": ("synth.gen_corpus.records",),
    "ingest": ("records.parse_snaps.records",),
    "annotate": ("annotation.load_annotations_csv.items",),
    "classify": ("voting.frames",),
    "spatial": ("spatial.heatmap_export.rows", "spatial.out_of_grid"),
    "cluster": ("temporal.kmeans.iterations",),
}


def test_traced_stages_run(tmp_path):
    # 3 cities x 200 records: every stage exits 0, cluster's default k = 3 included
    run = tmp_path / "run"
    synth_args = ["--seed", "3", "--out-dir", str(run), "--cities", "3", "--records", "200"]
    for stage in STAGES:
        spans_path = tmp_path / f"{stage}.trace"
        done = subprocess.run(
            [sys.executable, "-B", str(TRACED_STAGE), str(spans_path), repr(time.monotonic()), stage,
             *(synth_args if stage == "synth" else ["--config", str(run / "pipeline.yaml")])],
            env=_env(), capture_output=True, text=True,
        )
        assert done.returncode == 0, (stage, done.stderr)
        trace = json.loads(spans_path.read_text())
        names = [span[0] for span in trace["spans"]]
        assert f"stage.{stage}" in names, stage
        # a counter that was never fed is absent; out_of_grid may be fed a 0
        assert [c for c in COUNTERS.get(stage, ()) if c not in trace["counts"]] == [], stage
        if stage == "synth":  # synth draws a city at a time: each of the 3 x 200 records once, none twice
            assert trace["counts"]["synth.gen_corpus.records"] == 600
        # the corpus is decoded from JSONL once per run, by ingest; the later stages load cleaned.npz
        assert ("records.parse_snaps" in names) == (stage == "ingest"), stage
        if stage in ("ingest", "classify", "extent"):
            # each commits a JSON output through cli._write_json
            assert "cli.write_json" in names, stage
