"""Acceptance gate: every shipped guarantee, one printed verdict per criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS/FAIL line (straight to the real stdout so the lines
survive pytest's capture). Planted ground truth for the pipeline checks
is read from the generated manifest, never hard-coded here.
"""

import json
import time

import numpy as np
import pytest

from snapgrid import annotation, regression, spatial, synth, temporal
from snapgrid.cli import main as cli_main
from snapgrid.geo import Region, build_grid, locate_points, project
from snapgrid.records import DRIVING, NON_DRIVING
from snapgrid.voting import THRESHOLD_CHOICES, VotingRule, classify_scores

E2E_SEED = 20
STAGES = (
    "grid",
    "ingest",
    "annotate",
    "classify",
    "extent",
    "spatial",
    "temporal",
    "cluster",
    "regress",
    "report",
)


def _verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{number}] {status} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. voting equivalence


def test_01_voting_rule_equivalence(capsys):
    rules = [VotingRule("single"), VotingRule("majority")] + [
        VotingRule("threshold", p) for p in THRESHOLD_CHOICES
    ]
    t0 = time.perf_counter()
    # every label vector of 1 to 12 frames is one clip: a score of 1.0 for a driving frame, 0.0 otherwise
    vectors = [(length, bits) for length in range(1, 13) for bits in range(2**length)]
    scores = np.array([float((bits >> i) & 1) for length, bits in vectors for i in range(length)])
    offsets = np.cumsum([0] + [length for length, _bits in vectors])
    votes = {rule: classify_scores(scores, offsets, rule).tolist() for rule in rules}
    mismatches = checked = 0
    for k, (length, bits) in enumerate(vectors):
        n_driving = bin(bits).count("1")
        frac = n_driving / length
        for rule in rules:
            if rule.kind == "single":
                want = DRIVING if n_driving >= 1 else NON_DRIVING
            elif rule.kind == "majority":
                want = DRIVING if frac > 0.5 else NON_DRIVING
            else:
                want = DRIVING if frac > rule.threshold_pct / 100.0 else NON_DRIVING
            mismatches += (DRIVING if votes[rule][k] else NON_DRIVING) != want
            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        1,
        "voting rule equivalence",
        mismatches == 0 and elapsed < 1.0,
        f"{checked} label-vector/rule cases, {mismatches} mismatches, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. MLE parameter recovery


def test_02_mle_parameter_recovery(capsys):
    t0 = time.perf_counter()
    lam_hits = sum(
        abs(
            spatial.fit_mle(
                synth.sample_family(
                    "exponential", {"lam": 0.5}, 10_000, np.random.default_rng(seed)
                ),
                "exponential",
            ).params["lam"]
            - 0.5
        )
        <= 0.02
        for seed in range(100)
    )
    alpha_hits = sum(
        abs(
            spatial.fit_mle(
                synth.sample_family(
                    "power_law", {"alpha": 2.5, "x_min": 1.0}, 10_000, np.random.default_rng(seed)
                ),
                "power_law",
            ).params["alpha"]
            - 2.5
        )
        <= 0.05
        for seed in range(100)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        2,
        "MLE parameter recovery",
        lam_hits >= 99 and alpha_hits >= 99 and elapsed < 5.0,
        f"lambda {lam_hits}/100 within 0.02, alpha {alpha_hits}/100 within 0.05, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. BIC model selection


def test_03_bic_model_selection(capsys):
    planted = {
        "exponential": {"lam": 1.0},
        "normal": {"mu": 12.0, "sigma": 2.0},
        "log_normal": {"mu_log": 1.0, "sigma_log": 0.75},
        "power_law": {"alpha": 2.5, "x_min": 1.0},
    }
    floor = {"exponential": 95, "normal": 95, "log_normal": 90, "power_law": 90}
    t0 = time.perf_counter()
    wins = {
        family: sum(
            spatial.compare_fits(
                synth.sample_family(family, params, 5_000, np.random.default_rng(seed))
            ).best_by_bic
            == family
            for seed in range(100)
        )
        for family, params in planted.items()
    }
    elapsed = time.perf_counter() - t0
    ok = all(wins[f] >= floor[f] for f in planted) and elapsed < 30.0
    detail = ", ".join(f"{f} {w}/100" for f, w in wins.items())
    _verdict(capsys, 3, "BIC model selection", ok, f"{detail}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. agreement statistics


def test_04_kappa_and_adjudication(capsys):
    def matrix(counts, categories=(DRIVING, NON_DRIVING)):
        arr = np.array(counts, dtype=np.int64)
        return annotation.AnnotationMatrix(
            item_ids=tuple(f"i{j}" for j in range(arr.shape[0])),
            categories=tuple(categories),
            counts=arr,
        )

    # hand-evaluated fixtures: unanimous, two-item split, and a mixed case
    fixtures = [
        (matrix([[3, 0], [0, 3], [3, 0], [0, 3]]), 1.0),
        (matrix([[1, 1], [1, 1]]), -1.0),
        (matrix([[3, 0], [2, 1], [1, 2], [0, 3], [2, 1]]), 11.0 / 56.0),
    ]
    kappa_ok = all(
        abs(annotation.fleiss_kappa(m) - expected) <= 1e-10 for m, expected in fixtures
    )

    p = 0.1
    ids = [f"x-{i:06d}" for i in range(5_000)]
    labels = [DRIVING if i % 2 == 0 else NON_DRIVING for i in range(5_000)]
    rows = synth.gen_annotations(ids, labels, flip_prob=p, seed=0)
    adjudicated = {
        g.item_id: g.label
        for g in annotation.adjudicate(
            annotation.matrix_from_long(rows), positive_category=DRIVING
        )
    }
    err = sum(adjudicated[i] != label for i, label in zip(ids, labels)) / len(ids)
    analytic = 3 * p**2 * (1 - p) + p**3
    adj_ok = abs(err - analytic) <= 0.01
    _verdict(
        capsys,
        4,
        "kappa exactness and adjudication error",
        kappa_ok and adj_ok,
        f"3 fixed matrices within 1e-10, error {err:.4f} vs {analytic:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. clustering recovery


def test_05_planted_cluster_recovery(capsys):
    t0 = time.perf_counter()
    partition_hits = silhouette_hits = 0
    for seed in range(100):
        X, truth = synth.gen_planted_week_vectors(30, 3, seed=seed)
        got = temporal.kmeans(X, 3, seed=seed).labels
        same = (got[:, None] == got[None, :]) == (truth[:, None] == truth[None, :])
        partition_hits += bool(same.all())
        sils = {
            k: temporal.silhouette(X, temporal.kmeans(X, k, seed=seed).labels)
            for k in (2, 3, 4, 5, 6)
        }
        silhouette_hits += all(sils[3] > sils[k] for k in (2, 4, 5, 6))
    elapsed = time.perf_counter() - t0
    ok = partition_hits >= 95 and silhouette_hits >= 95 and elapsed < 10.0
    _verdict(
        capsys,
        5,
        "planted 3-cluster recovery",
        ok,
        f"partition {partition_hits}/100, silhouette peak at k=3 {silhouette_hits}/100, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 6. regression recovery


def test_06_regression_recovery(capsys):
    planted = synth.PLANTED_COEFS

    exact = regression.regression_report(synth.gen_regression_cities(130, seed=0, noise_sigma=0.0))
    max_dev = max(abs(t.coef - b) for t, b in zip(exact.terms, planted))
    exact_ok = max_dev <= 1e-8 and abs(exact.r_squared - 1.0) <= 1e-8

    se_hits = null_hits = 0
    for seed in range(100):
        design = regression.build_design(
            synth.gen_regression_cities(130, seed=seed, noise_sigma=0.1)
        )
        fit = regression.ols_fit(design.X, design.y, design.columns)
        se_hits += all(
            abs(float(fit.coefs[j]) - planted[j]) <= 3.0 * float(fit.std_errors[j])
            for j in range(len(planted))
        )
        noise = np.random.default_rng(seed + 10_000).normal(size=design.y.size)
        full = regression.ols_fit(
            np.column_stack([design.X, noise]), design.y, design.columns + ("noise",)
        )
        null_hits += regression.lr_test(full, fit).p_value > 0.05
    ok = exact_ok and se_hits >= 95 and null_hits >= 90
    _verdict(
        capsys,
        6,
        "planted regression recovery",
        ok,
        f"zero-noise dev {max_dev:.1e}, 3-SE coverage {se_hits}/100, null-column p>0.05 {null_hits}/100",
    )


# ---------------------------------------------------------------------------
# 7. geometry against brute force


def _ray_cast(lon: float, lat: float, ring) -> bool:
    """Crossing-number point-in-polygon, boundary inclusive; test-local oracle."""
    inside = False
    n = len(ring)
    for i in range(n):
        (ay, ax), (by, bx) = ring[i], ring[(i + 1) % n]
        cross = (bx - ax) * (lat - ay) - (by - ay) * (lon - ax)
        if (
            abs(cross) < 1e-12
            and min(ax, bx) - 1e-12 <= lon <= max(ax, bx) + 1e-12
            and min(ay, by) - 1e-12 <= lat <= max(ay, by) + 1e-12
        ):
            return True
        if (ay > lat) != (by > lat):
            x_cross = ax + (lat - ay) * (bx - ax) / (by - ay)
            if x_cross > lon:
                inside = not inside
    return inside


def _ring_at(anchor_lat: float, anchor_lon: float, points_m) -> list[tuple[float, float]]:
    """The ``(lat, lon)`` of each ``(x, y)`` metres east and north of the anchor; test-local projection."""
    meters_per_deg_lat = 111_320.0
    meters_per_deg_lon = meters_per_deg_lat * np.cos(np.radians(anchor_lat))
    return [
        (anchor_lat + y / meters_per_deg_lat, anchor_lon + x / meters_per_deg_lon)
        for x, y in points_m
    ]


def test_07_geometry_vs_brute_force(capsys):
    # clause 1: locate_points() vs an exhaustive per-tile bounds scan
    spec = synth.default_spec(0)
    locate_mismatches = 0
    n_points = 10_000
    for ci, cfg in enumerate(spec.cities):
        region = synth.city_region(cfg, spec.tile_size_m)
        grid = build_grid(region, spec.tile_size_m)
        rng = np.random.default_rng(1000 + ci)
        south, west, north, east = region.bbox
        dlat, dlon = north - south, east - west
        lats = rng.uniform(south - 0.1 * dlat, north + 0.1 * dlat, n_points)
        lons = rng.uniform(west - 0.1 * dlon, east + 0.1 * dlon, n_points)
        xs, ys = project(lats, lons, grid.origin_lat, grid.origin_lon)
        s = grid.tile_size_m
        expected = np.full(n_points, -1, dtype=int)
        claims = np.zeros(n_points, dtype=int)
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                hit = (xs >= c * s) & (xs < (c + 1) * s) & (ys >= r * s) & (ys < (r + 1) * s)
                claims += hit
                if grid.active[r, c]:
                    expected[hit] = r * grid.n_cols + c
        assert claims.max() <= 1  # tiles partition the plane
        locate_mismatches += int(np.count_nonzero(locate_points(lats, lons, grid) != expected))

    # clause 2: tile centres vs the test's own projection, and polygon tile masks vs the independent
    # ray caster at those centres
    km = 1000.0
    rings = {
        "triangle": _ring_at(0.0, 0.0, [(0, 0), (2.5 * km, 0), (0, 2.5 * km)]),
        "ell": _ring_at(
            40.0,
            -74.0,
            [(0, 0), (3 * km, 0), (3 * km, 1.2 * km), (1.2 * km, 1.2 * km), (1.2 * km, 3 * km), (0, 3 * km)],
        ),
        "pentagon": _ring_at(
            -10.0,
            30.0,
            [
                (2 * km + 1.9 * km * np.cos(np.radians(a)), 2 * km + 1.9 * km * np.sin(np.radians(a)))
                for a in (90, 162, 234, 306, 18)
            ],
        ),
    }
    mask_mismatches = tiles_checked = 0
    for ring in rings.values():
        grid = build_grid(Region.from_polygon(ring), km)
        south, west = min(lat for lat, _lon in ring), min(lon for _lat, lon in ring)
        got_lats, got_lons = grid.centers()
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                lat, lon = _ring_at(south, west, [((c + 0.5) * km, (r + 0.5) * km)])[0]
                k = r * grid.n_cols + c
                exact = abs(got_lats[k] - lat) <= 1e-9 and abs(got_lons[k] - lon) <= 1e-9
                oracle = _ray_cast(lon, lat, ring)
                mask_mismatches += not exact or oracle != bool(grid.active[r, c])
                tiles_checked += 1
    _verdict(
        capsys,
        7,
        "geometry vs brute force",
        locate_mismatches == 0 and mask_mismatches == 0,
        f"{n_points} points x {len(spec.cities)} cities exact, "
        f"{tiles_checked} polygon tile centers exact",
    )


# ---------------------------------------------------------------------------
# 8 & 9. end-to-end pipeline and determinism


def _run_pipeline(out_dir) -> float:
    t0 = time.perf_counter()
    assert cli_main(["synth", "--seed", str(E2E_SEED), "--out-dir", str(out_dir)]) == 0
    config = str(out_dir / "pipeline.yaml")
    for stage in STAGES:
        assert cli_main([stage, "--config", config]) == 0, stage
    return time.perf_counter() - t0


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    first = tmp_path_factory.mktemp("e2e_run1")
    second = tmp_path_factory.mktemp("e2e_run2")
    elapsed = _run_pipeline(first)
    _run_pipeline(second)
    return first, second, elapsed


def test_08_end_to_end_recovery(pipeline_runs, capsys):
    out, _second, elapsed = pipeline_runs
    manifest = synth.load_manifest(out / "manifest.json")
    cities = manifest["cities"]
    weight = sum(c["n_records"] for c in cities.values())
    planted_extent = sum(c["driving_fraction"] * c["n_records"] for c in cities.values()) / weight
    factors = {c["night_uplift_factor"] for c in cities.values()}
    families = {c["family"] for c in cities.values()}
    assert len(factors) == 1 and len(families) == 1
    planted_uplift = (factors.pop() - 1.0) * 100.0
    planted_family = families.pop()

    with open(out / "report.json") as fh:
        report = json.load(fh)
    extent_got = report["extent"]["overall"]
    uplift_got = report["temporal"]["pooled"]["night_uplift_pct"]
    family_pct = report["spatial"]["bic_win_pct"][planted_family]
    ok = (
        abs(extent_got - planted_extent) <= 0.005
        and abs(uplift_got - planted_uplift) <= 5.0
        and family_pct >= 90.0
        and elapsed < 120.0
    )
    _verdict(
        capsys,
        8,
        "end-to-end planted recovery",
        ok,
        f"extent {extent_got:.4f} vs {planted_extent:.4f}, uplift {uplift_got:.1f} vs {planted_uplift:.0f}, "
        f"{planted_family} BIC wins {family_pct:.0f}%, {elapsed:.1f}s",
    )


def test_09_pipeline_determinism(pipeline_runs, capsys):
    first, second, _elapsed = pipeline_runs
    names = [
        "manifest.json",
        "grid.json",
        "ingest.json",
        "annotation.json",
        "classify.json",
        "extent.json",
        "spatial.json",
        "temporal.json",
        "cluster.json",
        "regress.json",
        "report.json",
        "labels.csv",
        "heatmap_city00.csv",
    ]
    differing = [
        n for n in names if (first / n).read_bytes() != (second / n).read_bytes()
    ]
    _verdict(
        capsys,
        9,
        "same-seed determinism",
        not differing,
        f"{len(names)} artifacts byte-identical" if not differing else f"differs: {differing}",
    )
