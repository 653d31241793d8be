"""Command-line pipeline around the library.

One subcommand per analysis stage, each declared once in ``STAGES``: its
function, help line and the files it hands on to later stages. The
parser, the stage that error messages tell the user to (re-)run, and the
parts that ``report`` merges all come from that table.

The YAML config holds only the run's inputs: ``seed``, ``cities`` and three
input paths, each checked once by ``load_config`` against the ``CHECKS``
table. The vote is classify's ``--rule``/``--threshold``; the frame cutoff,
the tile size, the night window and the cluster count are the constants
``voting.FRAME_CUTOFF``, ``geo.TILE_SIZE_M``, ``temporal.NIGHT`` and
``temporal.N_CLUSTERS``. A stage
writes no file: it returns its outputs, ``{file name: content}``, and a
summary, and ``main`` commits the outputs all or nothing, so a failed
stage leaves the previous artifacts as they were. A re-run reproduces
them byte for byte. An output may be a writer that does the stage's work
as it writes: synth's ``snaps.jsonl`` writer calls ``synth.gen_corpus``
once per city and writes that city before it draws the next, so synth
holds one city's columns, not the whole corpus, and a city that fails
still leaves no file changed.

``cleaned.npz`` (from ingest, the one stage that decodes JSONL, straight into
columns) is the one record-level intermediate: ``records.SnapColumns``, loaded
whole by every later stage. classify stores no per-record label: ``classify.json``
records the voting rule it applied, the cutoff ``voting.FRAME_CUTOFF`` and a
CRC-32 of the scored records' ids, and the stages after it check that CRC and
that cutoff and re-apply the rule through the same ``voting.classify_scores``.

Exit status: 0 on success, 2 for usage/config errors and missing or
mismatched intermediates, 1 for runtime failures; each prints a single
diagnostic line on stderr.

The program, ``python -m snapgrid.cli`` or the installed ``snapgrid``, is
``run``: it keeps the garbage collector off the objects that start-up made
(``gc.freeze``), so that neither the collections during a stage nor the one
at interpreter exit walk every imported module again. ``main`` is the same
stage without that, for callers that import the module, such as tests, whose
objects must stay collectable.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # through the imports below: run() freezes what they leave, then turns the collector back on

import argparse
import csv
import io
import json
import os
import sys
import zlib
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import annotation, geo, records, regression, spatial, synth, temporal, voting
from .errors import ConfigError, SnapGridError
from .geo import Region, build_grid, locate_points

DEFAULT_CONFIG = {"seed": 0, "cities": {}}
# input paths, resolved against the config file's directory
PATH_KEYS = ("snaps", "annotations", "city_stats")


def _is_int(value) -> bool:
    return type(value) is int  # not a bool: Python would count YAML's true and false as 1 and 0


# Every setting, by its dotted name with "*" for any city id and "#" for any
# list index: (what a valid value is, a test that returns true for one or
# raises TypeError or ValueError). A key that no entry names is unknown.
CHECKS = {
    "seed": ("an int", _is_int),
    # a city id ending in NUL would lose it in cleaned.npz's string table
    "cities": ("a mapping of ids without NUL", lambda v: type(v) is dict and not any("\0" in c for c in v)),
    "cities.*": ("a mapping of a bbox and a tz", lambda v: type(v) is dict and v.keys() == {"bbox", "tz"}),
    # tiled, not only parsed: a bbox whose last tile overhangs a pole or the antimeridian fails here
    "cities.*.bbox": (
        "[south, west, north, east] in degrees",
        lambda v: type(v) is list and len(v) == 4 and geo.build_grid(Region.from_bbox(*v)),
    ),
    "cities.*.bbox.#": ("a number", lambda v: type(v) in (int, float)),
    "cities.*.tz": ("an IANA time zone", lambda v: type(v) is str and records.get_zone(v)),
    **{key: ("a path", lambda v: type(v) is str) for key in PATH_KEYS},
}
CLEANED = "cleaned.npz"
_CRC_CHUNK = 1 << 16  # records per zlib.crc32 call in _ids_crc32


# ---------------------------------------------------------------------------
# small utilities


def _write_json(path: Path, obj) -> None:
    path.write_bytes((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _commit(out_dir: Path, outputs: dict) -> None:
    """Write ``outputs``, ``{file name: str, JSON-able dict or writer(path)}``, all or nothing.

    Each goes to ``<name>.<pid>.tmp`` beside its target, and no target is
    replaced before every write has succeeded; on a failure the temp files
    are removed, so every target keeps its previous contents.
    """
    tmps = {}
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, content in outputs.items():
            tmp = tmps[name] = out_dir / f"{name}.{os.getpid()}.tmp"
            if isinstance(content, str):
                tmp.write_bytes(content.encode())
            elif isinstance(content, dict):
                _write_json(tmp, content)
            else:
                content(tmp)
        for name, tmp in tmps.items():
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def _csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV text; fields with commas, quotes or newlines are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def load_config(path: Optional[str]) -> dict:
    """Read the YAML config, fill defaults, check every setting against ``CHECKS``."""
    if path is None:
        return dict(DEFAULT_CONFIG, _dir=Path.cwd())
    p = Path(path)
    try:
        loaded = yaml.safe_load(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {p}: {exc}")
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"config root must be a mapping, got {type(loaded).__name__}")
    cfg = {**DEFAULT_CONFIG, **loaded}
    _check_settings(cfg)
    return dict(cfg, _dir=p.parent.resolve())


def _check_settings(value, name: str = "", pattern: str = "") -> None:
    """Check ``value``, the setting ``name`` (the whole config when empty), against ``CHECKS``, its parts first."""
    prefix, here = (f"{pattern}.", f"{name}.") if pattern else ("", "")
    if isinstance(value, dict) and any(key.startswith(prefix) and key != f"{prefix}#" for key in CHECKS):
        for key, part in value.items():
            if type(key) is not str:
                raise ConfigError(f"bad {here}{json.dumps(key, default=str)}: a config key must be a string")
            sub = f"{prefix}{key}" if f"{prefix}{key}" in CHECKS else f"{prefix}*"
            if sub not in CHECKS:
                raise ConfigError(f"unknown config key {key!r}" + (f" in section {name!r}" if name else ""))
            _check_settings(part, f"{here}{key}", sub)
    elif isinstance(value, list) and f"{prefix}#" in CHECKS:
        for i, part in enumerate(value):
            _check_settings(part, f"{here}{i}", f"{prefix}#")
    if pattern:
        what, test = CHECKS[pattern]
        try:
            valid = test(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name}: {exc}")
        if not valid:
            raise ConfigError(f"bad {name}: must be {what}, got {value!r}")


def _config_path(cfg: dict, key: str) -> Path:
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    path = (cfg["_dir"] / cfg[key]).resolve()
    if not path.exists():
        raise ConfigError(f"{path} not found; check the config key {key!r}")
    return path


def _city_regions(cfg: dict) -> dict[str, tuple[Region, str]]:
    if not cfg["cities"]:
        raise ConfigError("config defines no cities")
    return {c: (Region.from_bbox(*spec["bbox"]), spec["tz"]) for c, spec in sorted(cfg["cities"].items())}


def _producer(name: str) -> str:
    """The stage that writes the file ``name`` for later stages."""
    return next(stage for stage, (*_, files) in STAGES.items() if name in files)


def _read(path: Path, parse):
    """``parse(path)`` of the intermediate ``path``: a ConfigError that names the stage writing it if ``path`` is
    missing (FileNotFoundError) or ``parse`` finds it damaged or mismatched (ValueError)."""
    try:
        return parse(path)
    except FileNotFoundError:
        raise ConfigError(f"{path} not found; run the {_producer(path.name)} stage first")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}; re-run the {_producer(path.name)} stage")


def _json_object(path: Path) -> dict:
    """The JSON object in ``path``; ValueError for text that is not JSON or not an object."""
    obj = json.loads(path.read_text())
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


def _ids_crc32(cols: records.SnapColumns, rows: np.ndarray) -> int:
    """CRC-32 of the ids where ``rows`` is true, in order; each is length-prefixed, so no two lists share bytes.
    ``zlib.crc32`` runs over ``_CRC_CHUNK`` records at a time, so that no Python list spans the corpus."""
    crc, picked = 0, np.flatnonzero(rows)
    for first in range(0, len(picked), _CRC_CHUNK):
        i = picked[first:first + _CRC_CHUNK]
        at = cols.id_offsets[i[0]]
        blob = cols.ids[at:cols.id_offsets[i[-1] + 1]].tobytes()
        starts, ends = (cols.id_offsets[i] - at).tolist(), (cols.id_offsets[i + 1] - at).tolist()
        crc = zlib.crc32(b"".join(b"%d:%b" % (b - a, blob[a:b]) for a, b in zip(starts, ends)), crc)
    return crc


def _load_classified(out_dir: Path) -> tuple[records.SnapColumns, np.ndarray, np.ndarray]:
    """The columns of ``cleaned.npz``, which records are scored, and which ``classify.json``'s rule votes driving.

    ``classify.json`` must hold the CRC-32 of exactly the scored records'
    ids, in file order, and the cutoff ``voting.FRAME_CUTOFF``; otherwise
    it belongs to another corpus or is damaged, and classify must run again.
    """
    cols = _read(out_dir / CLEANED, records.SnapColumns.load)
    scored = cols.scored

    def rule_of(path: Path) -> voting.VotingRule:
        info = _json_object(path)
        if info.get("scored_ids_crc32") != _ids_crc32(cols, scored):
            raise ValueError(f"scored_ids_crc32 does not match the scored records of {CLEANED}")
        rule = voting.VotingRule(info.get("rule"), info.get("threshold_pct"))
        if info.get("cutoff") != voting.FRAME_CUTOFF:
            raise ValueError(f"cutoff must be {voting.FRAME_CUTOFF}, got {info.get('cutoff')!r}")
        return rule

    rule = _read(out_dir / "classify.json", rule_of)
    return cols, scored, voting.classify_scores(cols.scores, cols.score_offsets, rule)


def _city_rows(cols: records.SnapColumns, cities, rows: np.ndarray) -> dict[str, np.ndarray]:
    """For each of ``cities``, in their order, the indices of its records where ``rows`` is true."""
    code = {c: i for i, c in enumerate(cols.cities.tolist())}
    return {c: np.flatnonzero(rows & (cols.city == code.get(c, -1))) for c in cities}


# ---------------------------------------------------------------------------
# stages: each takes (args, cfg, out_dir) and returns (outputs, summary) for
# main to commit and print


def cmd_synth(args, _cfg, out_dir: Path) -> tuple[dict, str]:
    for flag in ("cities", "records"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    spec = synth.default_spec(args.seed, n_cities=args.cities, n_records=args.records)
    ids: list[str] = []  # the ids and true labels of each city's first synth.N_ANNOTATED records, in city order
    labels: list[Optional[str]] = []

    def city_parts():  # one city's columns at a time; the next is drawn only after the writer let it go
        for i in range(len(spec.cities)):
            part = synth.gen_corpus(spec, i)[0]
            ends = part.id_offsets[:min(synth.N_ANNOTATED, len(part)) + 1].tolist()
            ids.extend(part.ids[a:b].tobytes().decode("utf-8", "surrogatepass") for a, b in zip(ends, ends[1:]))
            labels.extend(records.LABELS[code] if code >= 0 else None for code in part.label[:len(ends) - 1].tolist())
            yield part
            del part

    def write_annotations(path: Path) -> None:  # after snaps.jsonl, which fills the sample
        rows = synth.gen_annotations(ids, labels, seed=spec.seed)
        path.write_bytes(_csv_text(("item_id", "rater_id", "category"), rows).encode())

    reg_sigma = 0.1  # the manifest records the regression noise
    stats = synth.gen_regression_cities(130, seed=spec.seed, noise_sigma=reg_sigma)
    manifest = synth.build_manifest(spec, regression_sigma=reg_sigma)
    pipeline = {
        "seed": spec.seed,
        "snaps": "snaps.jsonl",
        "annotations": "annotations.csv",
        "city_stats": "city_stats.csv",
        "cities": {
            c.city_id: {
                "tz": c.tz_id,
                "bbox": list(synth.city_region(c).bbox),
            }
            for c in spec.cities
        },
    }
    outputs = {
        "snaps.jsonl": partial(records.write_snaps, city_parts()),
        "annotations.csv": write_annotations,
        "city_stats.csv": partial(regression.write_city_stats, stats),
        "manifest.json": partial(synth.write_manifest, manifest),
        "pipeline.yaml": yaml.safe_dump(pipeline, sort_keys=True),
    }
    summary = f"synth: {args.cities * args.records} records across {args.cities} cities -> {out_dir / 'snaps.jsonl'}"
    return outputs, summary


def cmd_grid(args, cfg, out_dir: Path) -> tuple[dict, str]:
    outputs, shapes = {}, {}
    for city_id, (region, _tz) in _city_regions(cfg).items():
        grid = build_grid(region)
        outputs[f"grid_{city_id}.csv"] = grid.write_csv
        shapes[city_id] = {
            "n_rows": grid.n_rows,
            "n_cols": grid.n_cols,
            "n_active": grid.n_active,
        }
    outputs["grid.json"] = shapes
    total = sum(s["n_active"] for s in shapes.values())
    return outputs, f"grid: {len(shapes)} cities, {total} active tiles"


def cmd_ingest(args, cfg, out_dir: Path) -> tuple[dict, str]:
    cities = _city_regions(cfg)
    parsed, failures = records.parse_snaps(_config_path(cfg, "snaps"))
    known = np.array([c in cities for c in parsed.cities.tolist()], dtype=bool)[parsed.city]
    active = records.filter_active(parsed, known)
    total = int(np.count_nonzero(known))
    unknown, deleted = len(parsed) - total, total - len(active)
    rate_pct = 100.0 * deleted / total if total else 0.0
    outputs = {
        CLEANED: active.save,
        "ingest.json": {
            "parsed": len(parsed),
            "parse_failures": len(failures),
            "unknown_city": unknown,
            "deleted": deleted,
            "deletion_rate_pct": rate_pct,
            "kept": len(active),
        },
    }
    return outputs, (
        f"ingest: parsed {len(parsed)} ({len(failures)} bad lines, {unknown} of unknown cities), "
        f"dropped {deleted} deleted ({rate_pct:.2f}%), kept {len(active)}"
    )


def cmd_annotate(args, cfg, out_dir: Path) -> tuple[dict, str]:
    path = _config_path(cfg, "annotations")
    matrix = annotation.load_annotations_csv(path)
    kappa = annotation.fleiss_kappa(matrix)
    try:
        labels = annotation.adjudicate(matrix)
    except SnapGridError as exc:  # the ratings lack driving or hold a third category
        raise SnapGridError(f"{path}: {exc}") from exc
    positive = sum(1 for g in labels if g.label == records.DRIVING)
    outputs = {
        "labels.csv": _csv_text(
            ("item_id", "label", "support"), ((g.item_id, g.label, g.support) for g in labels)
        ),
        "annotation.json": {
            "fleiss_kappa": kappa,
            "n_items": matrix.n_items,
            "n_raters": matrix.n_raters,
            "positive_rate": positive / matrix.n_items,
        },
    }
    return outputs, f"annotate: {matrix.n_items} items, {matrix.n_raters} raters, kappa={kappa:.4f}"


def cmd_classify(args, cfg, out_dir: Path) -> tuple[dict, str]:
    try:
        rule = voting.VotingRule(args.rule or "majority", args.threshold)
    except ValueError as exc:
        raise ConfigError(f"bad voting rule: {exc}")

    cols = _read(out_dir / CLEANED, records.SnapColumns.load)
    scored = cols.scored
    votes = voting.classify_scores(cols.scores, cols.score_offsets, rule)[scored]

    out = {
        "rule": rule.kind,
        "threshold_pct": rule.threshold_pct,
        "cutoff": voting.FRAME_CUTOFF,
        "n_classified": len(votes),
        "n_skipped_unscored": len(cols) - len(votes),
        "scored_ids_crc32": _ids_crc32(cols, scored),
    }
    truths = cols.label[scored]
    if len(truths) and (truths >= 0).all():
        out["eval"] = asdict(voting.evaluate(votes, truths == records.LABELS.index(records.DRIVING)))
    suffix = f", accuracy={out['eval']['accuracy']:.4f}" if "eval" in out else ""
    return {"classify.json": out}, f"classify: {len(votes)} records via {rule.kind}{suffix}"


def cmd_extent(args, _cfg, out_dir: Path) -> tuple[dict, str]:
    cols, scored, driving = _load_classified(out_dir)
    report = voting.extent(cols.city[scored], driving[scored], cols.cities.tolist())
    return (
        {"extent.json": asdict(report)},
        f"extent: overall driving fraction {report.overall:.4f} over {len(report.per_city)} cities",
    )


def cmd_spatial(args, cfg, out_dir: Path) -> tuple[dict, str]:
    regions = _city_regions(cfg)
    cols, scored, driving = _load_classified(out_dir)
    outputs, comparisons = {}, []
    for city_id, rows in _city_rows(cols, regions, scored).items():
        grid = build_grid(regions[city_id][0])
        tiles = locate_points(cols.lat[rows], cols.lon[rows], grid)
        driving_counts = spatial.tile_counts(tiles[driving[rows]], grid)
        total = spatial.tile_counts(tiles, grid)
        comparisons.append(spatial.compare_fits(driving_counts.positive_counts, city_id))
        outputs[f"heatmap_{city_id}.csv"] = partial(spatial.heatmap_export, grid, driving_counts, total)
    wins = spatial.concentration_summary(comparisons)
    outputs["spatial.json"] = {
        "cities": {c.city_id: spatial.comparison_to_dict(c) for c in comparisons},
        "bic_win_pct": wins,
    }
    top = max(wins, key=wins.get)
    return outputs, f"spatial: {len(comparisons)} cities fit; {top} wins {wins[top]:.0f}% by BIC"


def cmd_temporal(args, cfg, out_dir: Path) -> tuple[dict, str]:
    regions = _city_regions(cfg)
    cols, _scored, driving = _load_classified(out_dir)

    per_city = {}
    pooled = np.zeros(24, dtype=np.int64)
    for city_id, rows in _city_rows(cols, regions, driving).items():
        profile = temporal.hourly_profile(cols.ts[rows], regions[city_id][1])
        pooled += profile
        per_city[city_id] = {
            "profile": profile.tolist(),
            "night_uplift_pct": temporal.night_uplift(profile, city_id),
        }
    uplift = temporal.night_uplift(pooled, "_pooled")
    correlations = {
        city_id: temporal.pearson(per_city[city_id]["profile"], pooled)
        for city_id in per_city
    }
    report = {
        "per_city": per_city,
        "pooled": {
            "profile": pooled.tolist(),
            "night_uplift_pct": uplift,
        },
        "correlation_with_pooled": correlations,
        "night_window": {"start_hour": temporal.NIGHT_START, "end_hour": temporal.NIGHT_END},
    }
    return (
        {"temporal.json": report},
        f"temporal: pooled night uplift {uplift:.1f}% across {len(per_city)} cities",
    )


def cmd_cluster(args, cfg, out_dir: Path) -> tuple[dict, str]:
    regions = _city_regions(cfg)
    seed = cfg["seed"]
    cols, _scored, driving = _load_classified(out_dir)

    tz_map = {c: tz for c, (_region, tz) in regions.items()}
    ts_by_city = {c: cols.ts[rows] for c, rows in _city_rows(cols, regions, driving).items()}
    X, kept = temporal.week_vectors(ts_by_city, tz_map)
    if len(kept) < 2:
        raise SnapGridError(f"clustering needs at least 2 cities with driving activity, got {len(kept)}")
    k = min(temporal.N_CLUSTERS, len(kept))

    result = temporal.kmeans(X, k, seed=seed)
    # silhouette needs k < n; report null when the metric is undefined
    sil = temporal.silhouette(X, result.labels) if k < len(kept) else None
    k_range = [kk for kk in range(2, 7) if kk <= len(kept)]
    elbow = temporal.elbow_curve(X, k_range, seed=seed)
    coords = temporal.embed_2d(X)
    report = {
        "k": k,
        "seed": seed,
        "cities": kept,
        "labels": {c: int(l) for c, l in zip(kept, result.labels)},
        "inertia": result.inertia,
        "silhouette": sil,
        "elbow": [[kk, inertia] for kk, inertia in elbow],
        "embedding": {c: [float(x), float(y)] for c, (x, y) in zip(kept, coords)},
    }
    sil_text = f", silhouette={sil:.3f}" if sil is not None else ""
    return (
        {"cluster.json": report},
        f"cluster: k={k} over {len(kept)} cities, inertia={result.inertia:.6g}{sil_text}",
    )


def cmd_regress(args, cfg, out_dir: Path) -> tuple[dict, str]:
    path = _config_path(cfg, "city_stats")
    cities = regression.load_city_stats(path)
    try:
        report = regression.regression_report(cities)
    except SnapGridError as exc:  # too few cities with every census field for the fit
        raise SnapGridError(f"{path}: {exc}") from exc
    lines = [f"regress: n={report.n}, R^2={report.r_squared:.4f}"]
    for t in report.terms:
        lr = f" LR={t.lr_chisq:.2f}" if t.lr_chisq is not None else ""
        lines.append(f"  {t.term:<16} {t.coef:>9.4f} ({t.std_error:.4f}){t.stars:<3}{lr}")
    return {"regress.json": asdict(report)}, "\n".join(lines)


def cmd_report(args, cfg, out_dir: Path) -> tuple[dict, str]:
    # the integer keys of a part that the cross-check below reads
    checked = {"ingest.json": ("kept",), "classify.json": ("n_classified", "n_skipped_unscored")}

    def part_of(path: Path) -> dict:
        part = _json_object(path)
        for key in checked.get(path.name, ()):
            if type(part.get(key)) is not int:
                raise ValueError(f"no integer {key!r}")
        return part

    parts = {}
    for name in (name for *_, files in STAGES.values() for name in files if name.endswith(".json")):
        path = out_dir / name
        parts[name.removesuffix(".json")] = _read(path, part_of) if path.exists() else None
    ingest, classify = parts["ingest"], parts["classify"]
    if ingest is not None and classify is not None:
        # classify saw every record ingest kept, or the two parts are from different runs
        seen = classify["n_classified"] + classify["n_skipped_unscored"]
        if seen != ingest["kept"]:
            raise ConfigError(
                f"classify.json covers {seen} records but ingest.json kept {ingest['kept']}; "
                f"re-run {_producer('classify.json')} and the stages after it"
            )
    present = sum(part is not None for part in parts.values())
    if not present:
        raise ConfigError(f"{out_dir} holds no stage output; run the {_producer('ingest.json')} stage first")
    return (
        {"report.json": {"seed": cfg["seed"], "cities": sorted(cfg["cities"]), **parts}},
        f"report: merged {present} sections -> {out_dir / 'report.json'}",
    )


# ---------------------------------------------------------------------------
# stage -> (function, help line, the files it writes that later stages read)

STAGES = {
    "synth": (cmd_synth, "generate a synthetic corpus with planted truth", ()),
    "grid": (cmd_grid, "build metric tile grids for configured cities", ()),
    "ingest": (cmd_ingest, "parse raw snaps, keep known cities' undeleted ones in cleaned.npz", (CLEANED, "ingest.json")),
    "annotate": (cmd_annotate, "agreement and adjudication from rater CSV", ("annotation.json",)),
    "classify": (cmd_classify, "vote frame scores; the rule is handed on in classify.json", ("classify.json",)),
    "extent": (cmd_extent, "driving fraction per city and pooled", ("extent.json",)),
    "spatial": (cmd_spatial, "per-tile counts and distribution fits", ("spatial.json",)),
    "temporal": (cmd_temporal, "hourly profiles and night uplift", ("temporal.json",)),
    "cluster": (cmd_cluster, "k-means over weekly activity vectors", ("cluster.json",)),
    "regress": (cmd_regress, "demographic regression on city stats", ("regress.json",)),
    "report": (cmd_report, "merge stage outputs into report.json", ()),
}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapgrid",
        description="Geo-tagged short-video analytics pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, _files) in STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name == "synth":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--out-dir", required=True)
            p.add_argument("--cities", type=int, default=synth.N_CITIES)
            p.add_argument("--records", type=int, default=synth.N_RECORDS, help="records per city")
            continue
        p.add_argument("--config", help="pipeline YAML config")
        p.add_argument("--out-dir", help="output directory (default: the config file's directory)")
        if name == "classify":
            p.add_argument("--rule", choices=("single", "majority", "threshold"))
            p.add_argument("--threshold", type=int, choices=voting.THRESHOLD_CHOICES)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # synth reads no config; its --out-dir is required
        cfg = None if args.command == "synth" else load_config(args.config)
        out_dir = Path(args.out_dir or cfg["_dir"])
        outputs, summary = args.func(args, cfg, out_dir)
        _commit(out_dir, outputs)
    except (SnapGridError, OSError) as exc:
        print(f"snapgrid {args.command}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    print(summary)
    return 0


def run() -> None:
    """The program: ``main`` with the command line, then exit with its status.

    Every object that start-up made (the modules and what they hold) is moved out of the collector's reach before
    ``main`` runs, and everything left is moved out after it, so that neither a collection during the stage nor the
    one at interpreter exit walks them. A caller that imports the module calls ``main``, which leaves the collector
    alone."""
    gc.freeze()
    gc.enable()
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
