"""The benchmark's tracer wraps snapgrid functions by name; every name must resolve.

``perfbench/traced_stage.py`` rebinds the functions in its target tables on
the nine ``snapgrid.*`` modules that ``import snapgrid.cli`` loads, and a
stage run under it fails when one is missing. The script is read, not
imported, so nothing is written beside it.
"""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import snapgrid

TRACED_STAGE = Path(__file__).resolve().parents[1] / "perfbench" / "traced_stage.py"
MODULES = ("cli", "records", "voting", "geo", "spatial", "temporal", "annotation", "regression", "synth")


def test_every_traced_function_exists():
    tables = runpy.run_path(str(TRACED_STAGE), run_name="traced_stage")
    targets = tables["STAGE_TARGETS"] + tables["STAGE_HOT_TARGETS"] + tables["SYNTH_TARGETS"]
    for mod, fn_name, _span, _counter in targets:
        assert mod in MODULES, mod
        assert callable(getattr(importlib.import_module(f"snapgrid.{mod}"), fn_name, None)), (mod, fn_name)


def test_importing_cli_loads_every_traced_module():
    src = str(Path(snapgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, snapgrid.cli; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert [m for m in MODULES if f"snapgrid.{m}" not in out] == []
