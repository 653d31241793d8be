"""Command-line pipeline around the library.

One subcommand per analysis stage (synth, grid, ingest, annotate,
classify, extent, spatial, temporal, cluster, regress, report), wired
together through a YAML config and an output directory. Every stage
writes its artifacts atomically (temp file + rename) and depends only on
its declared inputs plus the seed, so re-running a stage with the same
inputs reproduces its outputs byte for byte.

Exit status: 0 on success, 2 for usage/config errors (argparse), 1 for
runtime failures, which print a single diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import annotation, records, regression, spatial, synth, temporal, voting
from .errors import ConfigError, CorruptInputError, SnapGridError
from .geo import Region, build_grid

DEFAULT_CONFIG = {
    "seed": 0,
    "tile_size_m": 1000.0,
    "voting": {"rule": "majority", "threshold_pct": None, "cutoff": 0.5},
    "night_window": {"start_hour": 18, "end_hour": 2},
    "clustering": {"k": 3},
    "cities": {},
}


# ---------------------------------------------------------------------------
# small utilities


def _atomic_write(path: Path, write) -> None:
    """Call ``write(tmp)`` on a temp file beside ``path``, then rename it over ``path``.

    The temp name carries the process id, so concurrent runs never share
    one. If writing fails, the temp file is removed and ``path`` keeps its
    previous contents.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_bytes(text.encode()))


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def load_config(path: Optional[str]) -> dict:
    """Read the YAML config, fill defaults, resolve paths relative to the file."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in DEFAULT_CONFIG.items()}
    if path is None:
        cfg["_dir"] = Path.cwd()
        return cfg
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
    for key, value in loaded.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    cfg["_dir"] = p.parent.resolve()
    return cfg


def _config_path(cfg: dict, key: str) -> Path:
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return (cfg["_dir"] / cfg[key]).resolve()


def _city_regions(cfg: dict) -> dict[str, tuple[Region, str]]:
    out = {}
    for city_id, spec in sorted(cfg.get("cities", {}).items()):
        try:
            south, west, north, east = spec["bbox"]
            region = Region.from_bbox(south, west, north, east)
            out[city_id] = (region, spec["tz"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad city entry {city_id!r}: {exc}")
    if not out:
        raise ConfigError("config defines no cities")
    return out


def _voting_rule(cfg: dict, rule: Optional[str], threshold: Optional[int]) -> voting.VotingRule:
    name = rule or cfg["voting"].get("rule", "majority")
    pct = threshold
    if pct is None and name == "threshold":
        pct = cfg["voting"].get("threshold_pct")
    try:
        return voting.VotingRule(name, pct)
    except ValueError as exc:
        raise ConfigError(f"bad voting rule: {exc}")


def _load_intermediate(out_dir: Path, name: str, stage: str) -> list[records.SnapRecord]:
    """Records of the JSONL file ``name`` that ``stage`` writes into ``out_dir``."""
    path = out_dir / name
    if not path.exists():
        raise ConfigError(f"{path} not found; run the {stage} stage first")
    try:
        recs, failures = records.parse_snaps(path, format="jsonl")
        if failures:
            raise CorruptInputError(f"line {failures[0].line_number}: {failures[0].message}")
    except CorruptInputError as exc:
        raise ConfigError(f"{path} is corrupt ({exc}); re-run the {stage} stage")
    return recs


def _driving_by_city(recs) -> dict[str, list[records.SnapRecord]]:
    out: dict[str, list[records.SnapRecord]] = {}
    for rec in recs:
        if rec.label == records.DRIVING:
            out.setdefault(rec.city_id, []).append(rec)
    return out


# ---------------------------------------------------------------------------
# stages


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = synth.default_spec(args.seed, n_cities=args.cities, n_records=args.records)
    corpus, grids = synth.gen_corpus(spec)

    _atomic_write(out_dir / "snaps.jsonl", lambda tmp: records.write_snaps(corpus, tmp, format="jsonl"))

    sample = [r for r in corpus if int(r.id.rsplit("-", 1)[1]) < args.annotated]
    rows = synth.gen_annotations(sample, flip_prob=args.flip_prob, seed=spec.seed)
    lines = ["item_id,rater_id,category"] + [",".join(row) for row in rows]
    _write_text(out_dir / "annotations.csv", "\n".join(lines) + "\n")

    stats = synth.gen_regression_cities(130, seed=spec.seed, noise_sigma=args.reg_sigma)
    _atomic_write(out_dir / "city_stats.csv", lambda tmp: regression.write_city_stats(stats, tmp))

    manifest = synth.build_manifest(spec, regression_sigma=args.reg_sigma)
    _atomic_write(out_dir / "manifest.json", lambda tmp: synth.write_manifest(manifest, tmp))

    pipeline = {
        "seed": spec.seed,
        "tile_size_m": spec.tile_size_m,
        "snaps": "snaps.jsonl",
        "annotations": "annotations.csv",
        "city_stats": "city_stats.csv",
        "voting": {"rule": "majority", "threshold_pct": None, "cutoff": 0.5},
        "night_window": {"start_hour": 18, "end_hour": 2},
        "clustering": {"k": 3},
        "cities": {
            c.city_id: {
                "tz": c.tz_id,
                "bbox": list(synth.city_region(c, spec.tile_size_m).bbox),
            }
            for c in spec.cities
        },
    }
    _write_text(out_dir / "pipeline.yaml", yaml.safe_dump(pipeline, sort_keys=True))
    print(
        f"synth: {len(corpus)} records across {len(spec.cities)} cities "
        f"-> {out_dir / 'snaps.jsonl'}"
    )
    return 0


def cmd_grid(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for city_id, (region, _tz) in _city_regions(cfg).items():
        grid = build_grid(region, cfg["tile_size_m"])
        _atomic_write(out_dir / f"grid_{city_id}.csv", grid.write_csv)
        summary[city_id] = {
            "n_rows": grid.n_rows,
            "n_cols": grid.n_cols,
            "n_active": grid.n_active,
        }
    _write_json(out_dir / "grid.json", summary)
    total = sum(s["n_active"] for s in summary.values())
    print(f"grid: {len(summary)} cities, {total} active tiles")
    return 0


def cmd_ingest(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    recs, failures = records.parse_snaps(_config_path(cfg, "snaps"), format=args.format)
    summary = records.deletion_summary(recs)
    active = records.filter_active(recs)
    _atomic_write(out_dir / "cleaned.jsonl", lambda tmp: records.write_snaps(active, tmp, format="jsonl"))
    _write_json(
        out_dir / "ingest.json",
        {
            "parsed": len(recs),
            "parse_failures": len(failures),
            "deleted": summary.deleted,
            "deletion_rate_pct": summary.rate_pct,
            "kept": len(active),
        },
    )
    print(
        f"ingest: parsed {len(recs)} ({len(failures)} bad lines), "
        f"dropped {summary.deleted} deleted ({summary.rate_pct:.2f}%), kept {len(active)}"
    )
    return 0


def cmd_annotate(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = Path(args.annotations) if args.annotations else _config_path(cfg, "annotations")
    matrix = annotation.load_annotations_csv(path)
    kappa = annotation.fleiss_kappa(matrix)
    labels = annotation.adjudicate(matrix, positive_category=records.DRIVING)
    lines = ["item_id,label,support"] + [f"{g.item_id},{g.label},{g.support}" for g in labels]
    _write_text(out_dir / "labels.csv", "\n".join(lines) + "\n")
    positive = sum(1 for g in labels if g.label == records.DRIVING)
    _write_json(
        out_dir / "annotation.json",
        {
            "fleiss_kappa": kappa,
            "n_items": matrix.n_items,
            "n_raters": matrix.n_raters,
            "positive_rate": positive / matrix.n_items,
        },
    )
    print(f"annotate: {matrix.n_items} items, {matrix.n_raters} raters, kappa={kappa:.4f}")
    return 0


def cmd_classify(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rule = _voting_rule(cfg, args.rule, args.threshold)
    cutoff = float(cfg["voting"].get("cutoff", 0.5))

    recs = _load_intermediate(out_dir, "cleaned.jsonl", "ingest")
    scored = [r for r in recs if r.frame_scores]
    labeled = [
        replace(rec, label=voting.classify_scores(rec.frame_scores, rule, cutoff=cutoff))
        for rec in scored
    ]
    _atomic_write(out_dir / "labeled.jsonl", lambda tmp: records.write_snaps(labeled, tmp, format="jsonl"))

    out = {
        "rule": rule.kind,
        "threshold_pct": rule.threshold_pct,
        "cutoff": cutoff,
        "n_classified": len(labeled),
        "n_skipped_unscored": len(recs) - len(scored),
    }
    truths = [r.label for r in scored]
    if all(t is not None for t in truths) and truths:
        report = voting.evaluate([r.label for r in labeled], truths)
        out["eval"] = asdict(report)
    _write_json(out_dir / "classify.json", out)
    suffix = f", accuracy={out['eval']['accuracy']:.4f}" if "eval" in out else ""
    print(f"classify: {len(labeled)} records via {rule.kind}{suffix}")
    return 0


def cmd_extent(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    recs = _load_intermediate(out_dir, "labeled.jsonl", "classify")
    report = voting.extent(recs)
    _write_json(
        out_dir / "extent.json",
        {
            "per_city": report.per_city,
            "overall": report.overall,
            "ranking": [[c, f] for c, f in report.ranking],
        },
    )
    print(f"extent: overall driving fraction {report.overall:.4f} over {len(report.per_city)} cities")
    return 0


def cmd_spatial(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    recs = _load_intermediate(out_dir, "labeled.jsonl", "classify")
    regions = _city_regions(cfg)
    by_city: dict[str, list] = {c: [] for c in regions}
    for rec in recs:
        if rec.city_id in by_city:
            by_city[rec.city_id].append(rec)

    def fit_city(city_id):
        region, _tz = regions[city_id]
        grid = build_grid(region, cfg["tile_size_m"])
        city_recs = by_city[city_id]
        driving = spatial.tile_counts(
            [r for r in city_recs if r.label == records.DRIVING], grid, city_id
        )
        total = spatial.tile_counts(city_recs, grid, city_id)
        comp = spatial.compare_fits(driving.positive_counts, city_id)
        _atomic_write(
            out_dir / f"heatmap_{city_id}.csv",
            lambda tmp: spatial.heatmap_export(grid, driving, total, tmp),
        )
        return comp

    comparisons = [fit_city(c) for c in sorted(regions)]
    wins = spatial.concentration_summary(comparisons)
    _write_json(
        out_dir / "spatial.json",
        {
            "cities": {c.city_id: spatial.comparison_to_dict(c) for c in comparisons},
            "bic_win_pct": wins,
        },
    )
    top = max(wins, key=wins.get)
    print(f"spatial: {len(comparisons)} cities fit; {top} wins {wins[top]:.0f}% by BIC")
    return 0


def cmd_temporal(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    recs = _load_intermediate(out_dir, "labeled.jsonl", "classify")
    regions = _city_regions(cfg)
    window = temporal.NightWindow(**cfg["night_window"])
    driving = _driving_by_city(recs)

    per_city = {}
    pooled = np.zeros(24, dtype=np.int64)
    for city_id in sorted(regions):
        _region, tz = regions[city_id]
        profile = temporal.hourly_profile(driving.get(city_id, []), tz, city_id)
        pooled += profile.counts
        per_city[city_id] = {
            "profile": profile.counts.tolist(),
            "night_uplift_pct": temporal.night_uplift(profile, window),
        }
    uplift = temporal.night_uplift(temporal.HourlyProfile(city_id="_pooled", counts=pooled), window)
    correlations = {
        city_id: temporal.pearson(per_city[city_id]["profile"], pooled)
        for city_id in per_city
    }
    _write_json(
        out_dir / "temporal.json",
        {
            "per_city": per_city,
            "pooled": {
                "profile": pooled.tolist(),
                "night_uplift_pct": uplift,
            },
            "correlation_with_pooled": correlations,
            "night_window": {"start_hour": window.start_hour, "end_hour": window.end_hour},
        },
    )
    print(f"temporal: pooled night uplift {uplift:.1f}% across {len(per_city)} cities")
    return 0


def cmd_cluster(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    recs = _load_intermediate(out_dir, "labeled.jsonl", "classify")
    regions = _city_regions(cfg)
    k = args.k if args.k is not None else int(cfg["clustering"].get("k", 3))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))

    driving = _driving_by_city(recs)
    ordered = {c: driving.get(c, []) for c in sorted(regions)}
    tz_map = {c: regions[c][1] for c in regions}
    X, kept = temporal.week_vectors(ordered, tz_map)

    result = temporal.kmeans(X, k, seed=seed)
    # silhouette needs 2 <= k < n; report null when the metric is undefined
    sil = temporal.silhouette(X, result.labels) if 2 <= k < X.shape[0] else None
    k_range = [kk for kk in range(2, 7) if kk <= len(kept)]
    elbow = temporal.elbow_curve(X, k_range, seed=seed)
    emb = temporal.embed_2d(X)
    _write_json(
        out_dir / "cluster.json",
        {
            "k": k,
            "seed": seed,
            "cities": kept,
            "labels": {c: int(l) for c, l in zip(kept, result.labels)},
            "inertia": result.inertia,
            "silhouette": sil,
            "elbow": [[kk, inertia] for kk, inertia in elbow],
            "embedding": {c: [float(x), float(y)] for c, (x, y) in zip(kept, emb.coords)},
        },
    )
    sil_text = f", silhouette={sil:.3f}" if sil is not None else ""
    print(f"cluster: k={k} over {len(kept)} cities, inertia={result.inertia:.6g}{sil_text}")
    return 0


def cmd_regress(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = Path(args.stats) if args.stats else _config_path(cfg, "city_stats")
    cities = regression.load_city_stats(path)
    report = regression.regression_report(cities)
    _write_json(
        out_dir / "regress.json",
        {
            "n": report.n,
            "r_squared": report.r_squared,
            "excluded": [[c, reason] for c, reason in report.excluded],
            "terms": [
                {
                    "term": t.term,
                    "coef": t.coef,
                    "std_error": t.std_error,
                    "t_value": t.t_value,
                    "p_value": t.p_value,
                    "stars": t.stars,
                    "lr_chisq": t.lr_chisq,
                    "lr_p_value": t.lr_p_value,
                }
                for t in report.terms
            ],
        },
    )
    print(f"regress: n={report.n}, R^2={report.r_squared:.4f}")
    for t in report.terms:
        lr = f" LR={t.lr_chisq:.2f}" if t.lr_chisq is not None else ""
        print(f"  {t.term:<16} {t.coef:>9.4f} ({t.std_error:.4f}){t.stars:<3}{lr}")
    return 0


_REPORT_PARTS = (
    "ingest",
    "annotation",
    "classify",
    "extent",
    "spatial",
    "temporal",
    "cluster",
    "regress",
)


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir or cfg["_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = {"seed": cfg.get("seed"), "cities": sorted(cfg.get("cities", {}))}
    for part in _REPORT_PARTS:
        path = out_dir / f"{part}.json"
        merged[part] = _read_json(path) if path.exists() else None
    _write_json(out_dir / "report.json", merged)
    present = [p for p in _REPORT_PARTS if merged[p] is not None]
    print(f"report: merged {len(present)} sections -> {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapgrid",
        description="Geo-tagged short-video analytics pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", help="pipeline YAML config")
        p.add_argument(
            "--out-dir",
            required=out_required,
            help="output directory (default: the config file's directory)",
        )

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--cities", type=int, default=10)
    p.add_argument("--records", type=int, default=30_000, help="records per city")
    p.add_argument("--annotated", type=int, default=200, help="annotated records per city")
    p.add_argument("--flip-prob", type=float, default=0.1)
    p.add_argument("--reg-sigma", type=float, default=0.1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("grid", help="build metric tile grids for configured cities")
    common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ingest", help="parse raw snaps, drop deleted, write cleaned.jsonl")
    common(p)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("annotate", help="agreement and adjudication from rater CSV")
    common(p)
    p.add_argument("--annotations", help="long-format rater CSV (overrides config)")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("classify", help="vote frame scores into per-record labels")
    common(p)
    p.add_argument("--rule", choices=("single", "majority", "threshold"))
    p.add_argument("--threshold", type=int, choices=voting.THRESHOLD_CHOICES)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("extent", help="driving fraction per city and pooled")
    common(p)
    p.set_defaults(func=cmd_extent)

    p = sub.add_parser("spatial", help="per-tile counts and distribution fits")
    common(p)
    p.set_defaults(func=cmd_spatial)

    p = sub.add_parser("temporal", help="hourly profiles and night uplift")
    common(p)
    p.set_defaults(func=cmd_temporal)

    p = sub.add_parser("cluster", help="k-means over weekly activity vectors")
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("regress", help="demographic regression on city stats")
    common(p)
    p.add_argument("--stats", help="city stats CSV (overrides config)")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("report", help="merge stage outputs into report.json")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"snapgrid {args.command}: {exc}", file=sys.stderr)
        return 2
    except SnapGridError as exc:
        print(f"snapgrid {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"snapgrid {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
