"""Raw records in, trustworthy labels out: parsing, deletions, kappa.

Walks the data-quality half of the pipeline on a small hand-made stream:
tolerant JSONL parsing with line-numbered failures, deletion tracking,
and inter-rater agreement with 2-of-3 adjudication.

Run: python demos/ingest_and_agreement.py
"""

import json

import numpy as np

from snapgrid.annotation import adjudicate, fleiss_kappa, matrix_from_long
from snapgrid.records import DRIVING, NON_DRIVING, filter_active, parse_snaps


def main():
    # A raw stream with two corrupt lines. Parsing never throws for bad
    # lines; it reports them with their line numbers instead.
    good = {
        "id": "nyc-000001", "ts_utc": "2025-03-03T21:30:00Z",
        "lat": 40.71, "lon": -74.0, "city_id": "nyc",
        "duration_s": 6.4, "frame_scores": [0.91, 0.84, 0.88],
        "label": "driving", "deleted": False,
    }
    lines = [
        json.dumps(good),
        "{not json at all",
        json.dumps({**good, "id": "nyc-000002", "deleted": True}),
        json.dumps({**good, "id": "nyc-000003", "lat": 999.0}),
        json.dumps({**good, "id": "nyc-000004", "label": "non_driving"}),
    ]
    cols, failures = parse_snaps(lines)
    print(f"parsed {len(cols)} records, {len(failures)} failures:")
    for f in failures:
        print(f"  line {f.line_number}: {f.message}")

    # the records come back as columns; deleted ones stay flagged until filtered
    deleted = int(np.count_nonzero(cols.deleted))
    active = filter_active(cols, np.ones(len(cols), dtype=bool))
    print(f"flagged deleted: {deleted}/{len(cols)} ({100.0 * deleted / len(cols):.1f}%)")
    ends = active.id_offsets.tolist()
    print(f"active records kept: {[active.ids[a:b].tobytes().decode() for a, b in zip(ends, ends[1:])]}")

    # Three raters, four items, one lone disagreement on the last item.
    rows = [
        ("clip-a", "r1", DRIVING), ("clip-a", "r2", DRIVING), ("clip-a", "r3", DRIVING),
        ("clip-b", "r1", NON_DRIVING), ("clip-b", "r2", NON_DRIVING), ("clip-b", "r3", NON_DRIVING),
        ("clip-c", "r1", DRIVING), ("clip-c", "r2", DRIVING), ("clip-c", "r3", DRIVING),
        ("clip-d", "r1", DRIVING), ("clip-d", "r2", NON_DRIVING), ("clip-d", "r3", DRIVING),
    ]
    matrix = matrix_from_long(rows)
    kappa = fleiss_kappa(matrix)
    print(f"\nFleiss kappa over {matrix.n_items} items, {matrix.n_raters} raters: {kappa:.3f}")
    for g in adjudicate(matrix):
        print(f"  {g.item_id}: {g.label} ({g.support}/3 votes)")


if __name__ == "__main__":
    main()
