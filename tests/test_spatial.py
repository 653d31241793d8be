"""Per-tile counts and closed-form distribution fits with BIC selection."""

import math

import numpy as np
import pytest

from snapgrid.errors import DegenerateSampleError, SnapGridError
from snapgrid.geo import Region, build_grid, locate_points, unproject
from snapgrid.spatial import (
    FAMILIES,
    N_PARAMS,
    compare_fits,
    concentration_summary,
    comparison_to_dict,
    fit_mle,
    heatmap_export,
    log_likelihood,
    tile_counts,
)
from snapgrid.synth import sample_family

# ---------------------------------------------------------------------------
# closed-form fits


def test_exponential_rate_is_reciprocal_mean():
    fit = fit_mle([1.0, 3.0], "exponential")
    assert fit.params["lam"] == 0.5
    assert fit.log_likelihood == pytest.approx(2 * math.log(0.5) - 2.0)
    assert fit.bic == pytest.approx(1 * math.log(2) - 2 * fit.log_likelihood)


def test_exponential_identity_holds_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.exponential(scale=rng.uniform(0.5, 5.0), size=50)
        fit = fit_mle(x, "exponential")
        assert fit.params["lam"] * x.mean() == pytest.approx(1.0, abs=1e-15)


def test_normal_fit_uses_population_variance():
    fit = fit_mle([1.0, 2.0, 3.0], "normal")
    assert fit.params["mu"] == pytest.approx(2.0)
    assert fit.params["sigma"] == pytest.approx(math.sqrt(2.0 / 3.0))


def test_log_normal_fit_is_normal_fit_of_logs():
    rng = np.random.default_rng(1)
    x = rng.lognormal(0.4, 0.9, size=200)
    ln_fit = fit_mle(x, "log_normal")
    n_fit = fit_mle(np.log(x), "normal")
    assert ln_fit.params["mu_log"] == pytest.approx(n_fit.params["mu"], abs=1e-12)
    assert ln_fit.params["sigma_log"] == pytest.approx(n_fit.params["sigma"], abs=1e-12)
    # densities differ by the Jacobian of the log transform
    assert ln_fit.log_likelihood == pytest.approx(
        n_fit.log_likelihood - float(np.log(x).sum()), abs=1e-8
    )


def test_power_law_alpha_closed_form():
    x = [1.0, math.e, math.e**2]
    fit = fit_mle(x, "power_law")
    assert fit.params["x_min"] == 1.0
    assert fit.params["alpha"] == pytest.approx(2.0)  # 1 + 3 / (0 + 1 + 2)


def test_power_law_scale_equivariance():
    rng = np.random.default_rng(2)
    x = sample_family("power_law", {"alpha": 2.5, "x_min": 1.0}, 500, rng)
    base = fit_mle(x, "power_law")
    scaled = fit_mle(7.25 * x, "power_law")
    assert scaled.params["alpha"] == pytest.approx(base.params["alpha"], abs=1e-9)
    assert scaled.params["x_min"] == pytest.approx(7.25 * base.params["x_min"])


def test_fit_rejects_degenerate_samples():
    with pytest.raises(DegenerateSampleError):
        fit_mle([1.0], "exponential")  # too small
    with pytest.raises(DegenerateSampleError):
        fit_mle([1.0, -2.0], "exponential")  # nonpositive
    with pytest.raises(DegenerateSampleError):
        fit_mle([2.0, 2.0, 2.0], "normal")  # zero variance
    with pytest.raises(DegenerateSampleError):
        fit_mle([3.0, 3.0], "power_law")  # everything at x_min
    with pytest.raises(ValueError):
        fit_mle([1.0, 2.0], "weibull")


def test_mle_is_a_local_maximum_of_the_likelihood():
    # nudging any fitted parameter by +/-1% never increases the likelihood
    rng = np.random.default_rng(3)
    samples = {
        "exponential": rng.exponential(2.0, 300),
        "normal": rng.normal(10.0, 3.0, 300),
        "log_normal": rng.lognormal(1.0, 0.5, 300),
        "power_law": sample_family("power_law", {"alpha": 2.5, "x_min": 1.0}, 300, rng),
    }
    for family, x in samples.items():
        fit = fit_mle(x, family)
        for name in fit.params:
            if name == "x_min":
                continue  # held fixed at min(x), not a free parameter
            for bump in (1.01, 0.99):
                nudged = dict(fit.params)
                nudged[name] = fit.params[name] * bump
                assert log_likelihood(family, x, nudged) <= fit.log_likelihood + 1e-9, (
                    family,
                    name,
                    bump,
                )


# ---------------------------------------------------------------------------
# model comparison


def test_compare_fits_needs_two_successes():
    # a constant sample only supports the exponential family
    with pytest.raises(SnapGridError, match="^only 1 of 4"):
        compare_fits([1.0, 1.0])
    with pytest.raises(SnapGridError, match="^city c7: only 1 of 4"):
        compare_fits([1.0, 1.0], "c7")


def test_compare_fits_reports_what_failed():
    # a zero value sinks every family but normal, and one survivor is not
    # enough for a comparison
    rng = np.random.default_rng(4)
    x = np.concatenate([[0.0], rng.exponential(1.0, 100)])
    with pytest.raises(SnapGridError, match="^only 1 of 4 families fit successfully") as exc_info:
        compare_fits(x)
    message = str(exc_info.value)
    for family in ("exponential", "log_normal", "power_law"):
        assert family in message


def test_compare_fits_clean_sample_has_no_failures():
    rng = np.random.default_rng(4)
    comp = compare_fits(rng.lognormal(1.0, 0.5, 200))
    assert comp.failures == {}
    assert set(comp.fits) == set(FAMILIES)


def test_bic_orders_like_loglik_at_equal_complexity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.lognormal(0.5, 0.6, size=400)
        comp = compare_fits(x)
        for a, b in (("exponential", "power_law"), ("normal", "log_normal")):
            if a in comp.fits and b in comp.fits:
                assert N_PARAMS[a] == N_PARAMS[b]
                bic_order = comp.fits[a].bic < comp.fits[b].bic
                ll_order = comp.fits[a].log_likelihood > comp.fits[b].log_likelihood
                assert bic_order == ll_order


def test_compare_fits_recovers_planted_family():
    planted = {
        "exponential": {"lam": 1.0},
        "normal": {"mu": 12.0, "sigma": 2.0},
        "log_normal": {"mu_log": 1.0, "sigma_log": 0.75},
        "power_law": {"alpha": 2.5, "x_min": 1.0},
    }
    for family, params in planted.items():
        rng = np.random.default_rng(6)
        x = sample_family(family, params, 5000, rng)
        comp = compare_fits(x, city_id=family)
        assert comp.best_by_bic == family, comp.best_by_bic


def test_concentration_summary_sums_to_hundred():
    rng = np.random.default_rng(7)
    comps = [
        compare_fits(sample_family("power_law", {"alpha": 2.4, "x_min": 1.0}, 800, rng), f"c{i}")
        for i in range(4)
    ]
    summary = concentration_summary(comps)
    assert set(summary) == set(FAMILIES)
    assert sum(summary.values()) == pytest.approx(100.0)


def test_comparison_to_dict_flags_winners():
    rng = np.random.default_rng(8)
    comp = compare_fits(rng.exponential(1.0, 500), "metro")
    view = comparison_to_dict(comp)
    assert view["city_id"] == "metro"
    winners = [f for f, d in view["fits"].items() if d["wins_bic"]]
    assert winners == [view["best_by_bic"]]


# ---------------------------------------------------------------------------
# tile counts


def grid_2x2():
    height = 2000.0 / 111_320.0
    region = Region.from_bbox(0.0, 0.0, height, height)
    return build_grid(region, tile_size_m=1000.0)


def counts_at(grid, points_m):
    """``tile_counts`` of points given by their projected ``(x, y)`` in meters."""
    lat, lon = unproject(np.array([x for x, _ in points_m]), np.array([y for _, y in points_m]),
                         grid.origin_lat, grid.origin_lon)
    tiles = locate_points(lat, lon, grid)
    return tile_counts(tiles, grid)


def test_tile_counts_places_records():
    grid = grid_2x2()
    vec = counts_at(grid, [
        (500.0, 500.0),   # tile (0, 0)
        (1500.0, 500.0),  # tile (0, 1)
        (1500.0, 500.0),
        (1500.0, 1500.0),  # tile (1, 1)
        (9000.0, 500.0),   # off the grid
    ])
    assert vec.counts.tolist() == [1, 2, 0, 1]  # row-major over active tiles
    assert vec.out_of_grid == 1
    assert vec.counts.sum() == 4
    assert vec.positive_counts.tolist() == [1, 2, 1]


def test_heatmap_export(tmp_path):
    grid = grid_2x2()
    total = counts_at(grid, [(500.0, 500.0)] * 3)
    driving = counts_at(grid, [(500.0, 500.0)])
    path = tmp_path / "heat.csv"
    heatmap_export(grid, driving, total, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].rstrip("\r") == "row,col,center_lat,center_lon,driving_count,total_count"
    assert len(lines) == 1 + grid.n_active
    first = lines[1].rstrip("\r").split(",")
    assert first[0] == "0" and first[1] == "0"
    assert first[4] == "1" and first[5] == "3"


def test_heatmap_export_rejects_misaligned_vectors():
    grid = grid_2x2()
    vec = counts_at(grid, [])
    smaller = build_grid(Region.from_bbox(0.0, 0.0, 0.005, 0.005), 1000.0)  # 1x1
    other = counts_at(smaller, [])
    with pytest.raises(SnapGridError, match="^count vectors are not aligned with the grid's active tiles$"):
        heatmap_export(grid, vec, other, "/dev/null")
