"""The benchmark's tracer wraps snapgrid functions by name; every name must resolve.

``perfbench/traced_stage.py`` rebinds the functions in its target tables on
the nine ``snapgrid.*`` modules that ``import snapgrid.cli`` loads, and a
stage run under it fails when one is missing. Its counters read the
wrapped calls' arguments and results, so a changed call shape fails the
stage too; the smoke test runs three stages under it. The script is read
or run with ``-B``, never imported, so nothing is written beside it.

Importing the CLI must not load scipy: every stage process pays for what
that import loads, and only ``regress`` uses scipy.
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
from snapgrid.cli import main

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


def test_traced_stages_run(tmp_path):
    assert main(["synth", "--seed", "3", "--out-dir", str(tmp_path),
                 "--cities", "2", "--records", "50", "--annotated", "10"]) == 0
    for stage in ("ingest", "classify", "extent"):
        spans_path = tmp_path / f"{stage}.trace"
        done = subprocess.run(
            [sys.executable, "-B", str(TRACED_STAGE), str(spans_path), repr(time.monotonic()),
             stage, "--config", str(tmp_path / "pipeline.yaml")],
            env=_env(), capture_output=True, text=True,
        )
        assert done.returncode == 0, (stage, done.stderr)
        trace = json.loads(spans_path.read_text())
        names = [span[0] for span in trace["spans"]]
        assert "records.parse_snaps" in names, stage
        # every stage commits a JSON output through cli._write_json
        assert "cli.write_json" in names, stage
        if stage == "ingest":
            # the counter sizes the file write_snaps was given: no rename may come before it
            assert trace["counts"]["records.write_snaps.mb"] > 0
