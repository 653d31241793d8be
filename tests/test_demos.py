"""Every demo runs to completion as a script.

Each ``demos/*.py`` runs in its own ``python -B`` process (no bytecode
written beside it) with the package's ``src`` directory on ``PYTHONPATH``.
Together they take about 14 s on a 2-core machine, most of it in
``full_pipeline.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import snapgrid

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    src = str(Path(snapgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-B", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
