"""Golden digest: the report's artifacts keep their bytes from commit to commit.

Acceptance test 9 compares two runs of the same code; this test compares a
run with a committed table, ``golden_seed7.json``: the sha256 of test 9's
13 files and of every heatmap and grid file, after ``synth --seed 7`` on
3 cities x 3000 records and the 10 stages. A change that alters an artifact on purpose
regenerates the table with ``python3 tests/test_golden.py`` and says which
files changed and why. The digests are tied to the numpy build, whose
float formatting and random streams they fix.

Two metamorphic tests edit the synthesised corpus before the stages run
and compare with the same table: shuffling its lines changes nothing but
the CRC of the scored ids in file order, and records of a city the config
does not name change nothing but ingest's ``parsed`` and ``unknown_city``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("golden_seed7.json")
SYNTH = ["--seed", "7", "--cities", "3", "--records", "3000"]
# acceptance test 9's list; the heatmaps and the grid files are globbed
ARTIFACTS = (
    "manifest.json", "grid.json", "ingest.json", "annotation.json", "classify.json", "extent.json",
    "spatial.json", "temporal.json", "cluster.json", "regress.json", "report.json", "labels.csv",
    "heatmap_city00.csv",
)


def artifacts(out_dir: Path, edit=None) -> dict[str, bytes]:
    """Run synth, ``edit(snaps_path)`` if given, and the 10 stages into ``out_dir``; each compared artifact."""
    from snapgrid.cli import STAGES, main

    assert main(["synth", "--out-dir", str(out_dir), *SYNTH]) == 0
    if edit is not None:
        edit(out_dir / "snaps.jsonl")
    config = str(out_dir / "pipeline.yaml")
    for stage in STAGES:
        if stage != "synth":
            assert main([stage, "--config", config]) == 0, stage
    globbed = (p.name for pattern in ("heatmap_*.csv", "grid_*.csv") for p in out_dir.glob(pattern))
    names = sorted({*ARTIFACTS, *globbed})
    return {name: (out_dir / name).read_bytes() for name in names}


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts(out_dir).items()}


def _changed(got: dict[str, bytes]) -> list[str]:
    """The artifacts whose digest differs from the golden table's."""
    want = json.loads(TABLE.read_text())
    assert sorted(got) == sorted(want)
    return [name for name in want if hashlib.sha256(got[name]).hexdigest() != want[name]]


def test_artifacts_match_the_golden_table(tmp_path):
    assert _changed(artifacts(tmp_path)) == []


def test_shuffled_corpus_gives_the_golden_artifacts(tmp_path):
    from snapgrid.cli import _ids_crc32
    import numpy as np

    from snapgrid.records import filter_active, parse_snaps

    in_order = []

    def shuffle(snaps: Path) -> None:
        lines = snaps.read_text().splitlines(keepends=True)
        parsed, _failures = parse_snaps(lines)
        cols = filter_active(parsed, np.ones(len(parsed), dtype=bool))
        in_order.append(_ids_crc32(cols, cols.scored))
        random.Random(0).shuffle(lines)
        snaps.write_text("".join(lines))

    got = artifacts(tmp_path, shuffle)
    # classify.json (and its copy in report.json) records the CRC of the scored
    # ids in file order: the one value that follows the order of the lines
    crc = json.loads(got["classify.json"])["scored_ids_crc32"]
    assert crc != in_order[0]
    for name in ("classify.json", "report.json"):
        got[name] = got[name].replace(b'"scored_ids_crc32": %d' % crc, b'"scored_ids_crc32": %d' % in_order[0])
    assert _changed(got) == []


def test_records_of_an_unknown_city_change_only_its_count(tmp_path):
    def add_strays(snaps: Path) -> None:
        lines = snaps.read_text().splitlines()[:40]
        strays = [json.loads(line) | {"id": f"zz-{i}", "city_id": "zz"} for i, line in enumerate(lines)]
        with open(snaps, "a") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in strays)

    got = artifacts(tmp_path, add_strays)
    ingest, report = json.loads(got["ingest.json"]), json.loads(got["report.json"])
    assert ingest["unknown_city"] == report["ingest"]["unknown_city"] == 40
    for part in (ingest, report["ingest"]):
        part["parsed"] -= 40
        part["unknown_city"] -= 40
    # written as the stages write JSON
    got["ingest.json"], got["report.json"] = (
        (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode() for obj in (ingest, report)
    )
    assert _changed(got) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
