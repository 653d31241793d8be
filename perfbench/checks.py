"""Output checks for the pipeline benchmark.

Each check belongs to the stage whose output it reads, and a stage
invocation that fails any of its checks counts as failed. The checks are
of three kinds:

- conservation: counts that must agree exactly between stages, such as
  every classified record landing in exactly one heatmap tile;
- planted truth: estimates that must recover what ``synth`` planted, at a
  tolerance that holds for every seed at the corpus size in use;
- determinism: same-seed runs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# The JSON each stage writes; it is read right after the stage exits,
# because the rule sweep overwrites classify.json once per rule.
STAGE_OUTPUT = {
    "grid": "grid.json",
    "ingest": "ingest.json",
    "annotate": "annotation.json",
    "classify": "classify.json",
    "extent": "extent.json",
    "spatial": "spatial.json",
    "temporal": "temporal.json",
    "cluster": "cluster.json",
    "regress": "regress.json",
    "report": "report.json",
}

SYNTH_FILES = ("manifest.json", "snaps.jsonl", "annotations.csv", "city_stats.csv", "pipeline.yaml")

# Acceptance test 9's determinism list (manifest.json is a synth file and is
# compared across the setup repetitions), with the stage that writes each.
ARTIFACT_STAGE = {
    "grid.json": "grid",
    "ingest.json": "ingest",
    "annotation.json": "annotate",
    "classify.json": "classify",
    "extent.json": "extent",
    "spatial.json": "spatial",
    "temporal.json": "temporal",
    "cluster.json": "cluster",
    "regress.json": "regress",
    "report.json": "report",
    "labels.csv": "annotate",
    "heatmap_city00.csv": "spatial",
}

REPORT_PARTS = ("ingest", "annotation", "classify", "extent", "spatial", "temporal", "cluster", "regress")

EXTENT_TOL = 0.005
# Acceptance test 8 allows 5.0 points of night uplift at 300k records. The
# estimate's standard error grows as 1/sqrt(records), so smaller corpora get
# the same bound in standard errors.
UPLIFT_TOL_AT_300K = 5.0
# Below paper scale a city's BIC winner is noisy (at 6k records per city the
# planted family won 8 to 10 of 10 cities over seeds 1-10); a majority of
# cities still fails only for a broken fit.
FAMILY_MIN_PCT = 50.0
REGRESSION_MAX_SE = 5.0
MAJORITY_MIN_ACCURACY = 0.99
REGRESSION_CITIES = 130
SWEEP_ORDER = ("single", "t10", "t30", "t50", "t70", "t90")


class Planted:
    """Ground truth read from a synth manifest."""

    def __init__(self, manifest: dict):
        cities = manifest["cities"]
        self.seed = manifest["seed"]
        self.cities = sorted(cities)
        n = sum(c["n_records"] for c in cities.values())
        self.records = n
        self.extent = sum(c["driving_fraction"] * c["n_records"] for c in cities.values()) / n
        self.uplift = {(c["night_uplift_factor"] - 1.0) * 100.0 for c in cities.values()}
        self.family = {c["family"] for c in cities.values()}
        self.coefs = manifest["regression"]["coefs"]
        self.annotated = {min(200, c["n_records"]) for c in cities.values()}


def rule_key(argv) -> str:
    """'single', 'majority' or 't<pct>' for a classify invocation."""
    args = list(argv)
    rule = args[args.index("--rule") + 1] if "--rule" in args else "majority"
    if rule == "threshold":
        return f"t{args[args.index('--threshold') + 1]}"
    return rule


def _load(stage) -> dict:
    if stage.output is None:
        raise ValueError(f"{STAGE_OUTPUT[stage.name]} missing after the stage")
    return json.loads(stage.output)


def _heatmap_sums(run_dir: Path, cities) -> tuple[int, int]:
    driving = total = 0
    for city in cities:
        with open(run_dir / f"heatmap_{city}.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                driving += int(row["driving_count"])
                total += int(row["total_count"])
    return driving, total


def check_pipeline(pipeline, planted: Planted, recovery: bool) -> None:
    """Append problems to each stage of one pipeline run."""
    seen: dict[str, dict] = {}
    classified = []
    for st in pipeline.stages:
        if st.exit != 0:  # spawn() has recorded the failure
            continue
        try:
            data = _load(st)
            st.problems.extend(_CHECKS[st.name](data, seen, pipeline.dir, planted, recovery, st.argv))
        except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            st.problems.append(f"unreadable output: {exc!r}")
        else:
            seen[st.name] = data
            if st.name == "classify":
                classified.append((st, data))
    _check_sweep(classified)


def _grid(d, seen, run_dir, planted, recovery, argv):
    out = []
    if sorted(d) != planted.cities:
        out.append(f"grid cities {sorted(d)} != {planted.cities}")
    if any(c["n_active"] < 1 for c in d.values()):
        out.append("a city has no active tile")
    return out


def _ingest(d, seen, run_dir, planted, recovery, argv):
    out = []
    if d["parsed"] != planted.records:
        out.append(f"parsed {d['parsed']} != {planted.records} records")
    if d["parse_failures"] != 0:
        out.append(f"{d['parse_failures']} parse failures")
    if d["kept"] + d["deleted"] != d["parsed"]:
        out.append("kept + deleted != parsed")
    return out


def _annotate(d, seen, run_dir, planted, recovery, argv):
    out = []
    want = len(planted.cities) * max(planted.annotated)
    if d["n_items"] != want:
        out.append(f"{d['n_items']} annotated items != {want}")
    if d["n_raters"] != 3:
        out.append(f"{d['n_raters']} raters != 3")
    if not 0.0 < d["fleiss_kappa"] <= 1.0:
        out.append(f"kappa {d['fleiss_kappa']} outside (0, 1]")
    return out


def _classify(d, seen, run_dir, planted, recovery, argv):
    out = []
    rule = rule_key(argv)
    got = d["rule"] if d["rule"] != "threshold" else f"t{d['threshold_pct']}"
    if got != rule:
        out.append(f"classify.json is for rule {got}, ran {rule}")
    kept = seen["ingest"]["kept"]
    if d["n_classified"] != kept or d["n_skipped_unscored"] != 0:
        out.append(f"classified {d['n_classified']} (+{d['n_skipped_unscored']} unscored) of {kept} kept")
    if sum(d["eval"]["confusion"]) != d["n_classified"]:
        out.append("confusion matrix does not cover every classified record")
    if rule == "majority" and d["eval"]["accuracy"] < MAJORITY_MIN_ACCURACY:
        out.append(f"majority accuracy {d['eval']['accuracy']:.4f} < {MAJORITY_MIN_ACCURACY}")
    return out


def _positives(classify: dict) -> int:
    tp, fp, _fn, _tn = classify["eval"]["confusion"]
    return tp + fp


def _extent(d, seen, run_dir, planted, recovery, argv):
    out = []
    c = seen["classify"]
    if sorted(d["per_city"]) != planted.cities:
        out.append("extent does not cover every city")
    if abs(d["overall"] - _positives(c) / c["n_classified"]) > 1e-12:
        out.append("overall extent disagrees with classify's positives")
    if abs(d["overall"] - planted.extent) > EXTENT_TOL:
        out.append(f"extent {d['overall']:.4f} vs planted {planted.extent:.4f} (tol {EXTENT_TOL})")
    return out


def _spatial(d, seen, run_dir, planted, recovery, argv):
    out = []
    c = seen["classify"]
    if sorted(d["cities"]) != planted.cities:
        out.append("spatial does not cover every city")
    driving, total = _heatmap_sums(run_dir, planted.cities)
    if total != c["n_classified"] or driving != _positives(c):
        out.append(
            f"heatmaps hold {driving}/{total} driving/total records, "
            f"classify has {_positives(c)}/{c['n_classified']}"
        )
    if abs(sum(d["bic_win_pct"].values()) - 100.0) > 1e-9:
        out.append("BIC win percentages do not sum to 100")
    if recovery:
        (family,) = planted.family
        if d["bic_win_pct"][family] < FAMILY_MIN_PCT:
            out.append(f"{family} wins {d['bic_win_pct'][family]:.0f}% of cities < {FAMILY_MIN_PCT:.0f}%")
    return out


def uplift_tolerance(records: int) -> float:
    return UPLIFT_TOL_AT_300K * math.sqrt(300_000 / records)


def _temporal(d, seen, run_dir, planted, recovery, argv):
    out = []
    pooled = d["pooled"]["profile"]
    if sum(pooled) != _positives(seen["classify"]):
        out.append(f"pooled profile holds {sum(pooled)} records, classify has {_positives(seen['classify'])} positives")
    if [sum(x) for x in zip(*(c["profile"] for c in d["per_city"].values()))] != pooled:
        out.append("pooled profile is not the sum of the city profiles")
    if recovery:
        (want,) = planted.uplift
        tol = uplift_tolerance(planted.records)
        got = d["pooled"]["night_uplift_pct"]
        if abs(got - want) > tol:
            out.append(f"night uplift {got:.1f} vs planted {want:.1f} (tol {tol:.1f})")
    return out


def _cluster(d, seen, run_dir, planted, recovery, argv):
    out = []
    if d["cities"] != planted.cities or sorted(d["labels"]) != planted.cities:
        out.append("clustering does not cover every city")
    if any(not 0 <= lab < d["k"] for lab in d["labels"].values()):
        out.append("cluster label out of range")
    if d["silhouette"] is None or len(d["elbow"]) != 5:
        out.append("silhouette or elbow curve missing")
    return out


def _regress(d, seen, run_dir, planted, recovery, argv):
    out = []
    if d["n"] + len(d["excluded"]) != REGRESSION_CITIES:
        out.append(f"n={d['n']} + {len(d['excluded'])} excluded != {REGRESSION_CITIES}")
    if sorted(t["term"] for t in d["terms"]) != sorted(planted.coefs):
        out.append("regression terms differ from the planted model")
    for t in d["terms"]:
        want = planted.coefs.get(t["term"])
        if want is not None and abs(t["coef"] - want) > REGRESSION_MAX_SE * t["std_error"]:
            out.append(f"{t['term']} {t['coef']:.3f} vs planted {want} (> {REGRESSION_MAX_SE} SE)")
    return out


def _report(d, seen, run_dir, planted, recovery, argv):
    out = []
    if d["seed"] != planted.seed or d["cities"] != planted.cities:
        out.append("report seed or cities differ from the manifest")
    for part in REPORT_PARTS:
        if d.get(part) is None:
            out.append(f"report section {part} missing")
        elif d[part] != json.loads((run_dir / f"{part}.json").read_bytes()):
            out.append(f"report section {part} differs from {part}.json")
    return out


_CHECKS = {
    "grid": _grid,
    "ingest": _ingest,
    "annotate": _annotate,
    "classify": _classify,
    "extent": _extent,
    "spatial": _spatial,
    "temporal": _temporal,
    "cluster": _cluster,
    "regress": _regress,
    "report": _report,
}


def _check_sweep(classified) -> None:
    """Across one run's classify invocations: stricter rules never find more."""
    runs = {rule_key(st.argv): (st, data) for st, data in classified}
    order = [r for r in SWEEP_ORDER if r in runs]
    for looser, stricter in zip(order, order[1:]):
        if _positives(runs[stricter][1]) > _positives(runs[looser][1]):
            runs[stricter][0].problems.append(f"{stricter} finds more positives than {looser}")
    if "majority" in runs and "t50" in runs:
        if runs["majority"][1]["eval"]["confusion"] != runs["t50"][1]["eval"]["confusion"]:
            runs["majority"][0].problems.append("majority confusion differs from t50")


def compare_setups(setups) -> None:
    """Same-seed synth runs must write byte-identical inputs."""
    first = setups[0]
    for other in setups[1:]:
        if other.exit != 0:
            continue
        for name in SYNTH_FILES:
            try:
                same = (first.dir / name).read_bytes() == (other.dir / name).read_bytes()
            except OSError as exc:
                other.problems.append(f"cannot compare {name}: {exc}")
                continue
            if not same:
                other.problems.append(f"{name} differs from the first setup's")


def compare_runs(first, other) -> None:
    """Same-seed pipeline runs must write byte-identical test-9 artifacts."""
    stages = {st.name: st for st in other.stages}
    for name, stage in ARTIFACT_STAGE.items():
        a, b = first.dir / name, other.dir / name
        if stage not in stages or not (a.exists() or b.exists()):
            continue
        if not (a.exists() and b.exists()) or a.read_bytes() != b.read_bytes():
            stages[stage].problems.append(f"{name} differs between same-seed runs")
