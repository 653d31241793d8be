"""Golden digest: the report's artifacts keep their bytes from commit to commit.

Acceptance test 9 compares two runs of the same code; this test compares a
run with a committed table, ``golden_seed7.json``: the sha256 of test 9's
13 files and of every heatmap, after ``synth --seed 7`` on 3 cities x 3000
records and the 10 stages. A change that alters an artifact on purpose
regenerates the table with ``python3 tests/test_golden.py`` and says which
files changed and why. The digests are tied to the numpy build, whose
float formatting and random streams they fix.
"""

import hashlib
import json
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("golden_seed7.json")
SYNTH = ["--seed", "7", "--cities", "3", "--records", "3000"]
# acceptance test 9's list; the heatmaps are globbed
ARTIFACTS = (
    "manifest.json", "grid.json", "ingest.json", "annotation.json", "classify.json", "extent.json",
    "spatial.json", "temporal.json", "cluster.json", "regress.json", "report.json", "labels.csv",
    "heatmap_city00.csv",
)


def digests(out_dir: Path) -> dict[str, str]:
    """Run synth and the 10 stages into ``out_dir``; the sha256 of each compared artifact."""
    from snapgrid.cli import STAGES, main

    assert main(["synth", "--out-dir", str(out_dir), *SYNTH]) == 0
    config = str(out_dir / "pipeline.yaml")
    for stage in STAGES:
        if stage != "synth":
            assert main([stage, "--config", config]) == 0, stage
    names = sorted({*ARTIFACTS, *(p.name for p in out_dir.glob("heatmap_*.csv"))})
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def test_artifacts_match_the_golden_table(tmp_path):
    want = json.loads(TABLE.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
