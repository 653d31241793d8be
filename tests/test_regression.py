"""Log-linear demographic regression: design build, OLS, LR tests."""

import math

import numpy as np
import pytest
from scipy import stats

from snapgrid.errors import SnapGridError
from snapgrid.regression import (
    DESIGN_TERMS,
    CityStats,
    build_design,
    load_city_stats,
    lr_test,
    ols_fit,
    regression_report,
    stars,
    write_city_stats,
)


def city(i=0, **overrides):
    fields = dict(
        city_id=f"city{i:03d}",
        total_snaps=50_000.0,
        driving_snaps=12_000.0,
        population=1_000_000.0,
        male_pct=55.0,
        age_lt20_pct=30.0,
        age_20_40_pct=35.0,
        age_40_60_pct=20.0,
        developing=False,
    )
    fields.update(overrides)
    return CityStats(**fields)


# ---------------------------------------------------------------------------
# design matrix


def test_design_log_transforms():
    design = build_design([city()])
    row = design.X[0]
    cols = dict(zip(design.columns, row))
    assert cols["intercept"] == 1.0
    assert cols["male_pct"] == 55.0              # percentage scale
    assert cols["age_lt20"] == pytest.approx(0.30)  # proportion scale
    assert cols["log_pop"] == pytest.approx(math.log(1_000_001.0))
    assert cols["log_pop"] == pytest.approx(13.8155, abs=1e-4)
    assert cols["log_total_snaps"] == pytest.approx(math.log(50_001.0))
    assert design.columns == DESIGN_TERMS


def test_design_zero_driving_maps_to_zero_response():
    design = build_design([city(driving_snaps=0.0)])
    assert design.y[0] == 0.0


def test_design_excludes_cities_with_missing_census():
    cities = [city(0), city(1, male_pct=None), city(2, population=None, developing=None)]
    design = build_design(cities)
    assert design.X.shape == (1, len(DESIGN_TERMS))  # city000 alone
    assert design.excluded == (
        ("city001", "missing male_pct"),
        ("city002", "missing population, developing"),
    )


def test_design_requires_at_least_one_complete_city():
    with pytest.raises(SnapGridError, match="^no city has the full set of design fields$"):
        build_design([city(male_pct=None)])


def test_city_stats_rejects_negative_counts():
    with pytest.raises(ValueError):
        city(driving_snaps=-1.0)


# ---------------------------------------------------------------------------
# OLS


def test_ols_exact_interpolation():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    beta = np.array([1.5, -2.0, 0.25])
    fit = ols_fit(X, X @ beta, ("intercept", "a", "b"))
    assert fit.coefs == pytest.approx(beta, abs=1e-8)
    assert fit.r_squared == 1.0


def test_ols_simple_line():
    x = np.array([1.0, 2.0, 3.0])
    X = np.column_stack([np.ones(3), x])
    fit = ols_fit(X, x, ("intercept", "x"))
    assert fit.coefs[fit.columns.index("x")] == pytest.approx(1.0)
    assert fit.coefs[fit.columns.index("intercept")] == pytest.approx(0.0, abs=1e-12)


def test_ols_five_point_normal_equations():
    # Worked by hand: slope 9/10, intercept 4/5, SSR 11/10,
    # SE(slope) = sqrt(11/300), SE(intercept) = sqrt(11/50), R^2 = 81/92.
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.0, 2.0, 3.0, 5.0])
    X = np.column_stack([np.ones(5), x])
    fit = ols_fit(X, y, ("intercept", "x"))
    assert fit.coefs[fit.columns.index("x")] == pytest.approx(0.9)
    assert fit.coefs[fit.columns.index("intercept")] == pytest.approx(0.8)
    assert fit.ssr == pytest.approx(1.1)
    assert fit.std_errors[1] == pytest.approx(math.sqrt(11.0 / 300.0))
    assert fit.std_errors[0] == pytest.approx(math.sqrt(11.0 / 50.0))
    assert fit.r_squared == pytest.approx(81.0 / 92.0)
    t_slope = 0.9 / math.sqrt(11.0 / 300.0)
    assert fit.t_values[1] == pytest.approx(t_slope)
    assert fit.p_values[1] == 2 * stats.t.sf(abs(fit.t_values[1]), 3)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(1)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
    y = rng.normal(size=50)
    fit = ols_fit(X, y, ("intercept", "a", "b", "c"))
    resid = y - X @ fit.coefs
    gram = np.abs(X.T @ resid)
    scale = np.abs(X).sum(axis=0)
    assert (gram / scale < 1e-10).all()


def test_ols_r_squared_never_drops_when_adding_columns():
    rng = np.random.default_rng(2)
    X = np.column_stack([np.ones(40), rng.normal(size=(40, 4))])
    y = rng.normal(size=40)
    names = ("intercept", "a", "b", "c", "d")
    r2 = [
        ols_fit(X[:, : p + 1], y, names[: p + 1]).r_squared
        for p in range(1, 5)
    ]
    for smaller, larger in zip(r2, r2[1:]):
        assert larger >= smaller - 1e-12


def test_ols_invariant_to_row_order():
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(25), rng.normal(size=(25, 2))])
    y = rng.normal(size=25)
    fit = ols_fit(X, y, ("intercept", "a", "b"))
    perm = rng.permutation(25)
    fit_p = ols_fit(X[perm], y[perm], ("intercept", "a", "b"))
    assert fit_p.coefs == pytest.approx(fit.coefs, abs=1e-10)
    assert fit_p.std_errors == pytest.approx(fit.std_errors, abs=1e-10)


def test_ols_names_collinear_columns():
    rng = np.random.default_rng(4)
    x = rng.normal(size=20)
    X = np.column_stack([np.ones(20), x, 2.0 * x])
    with pytest.raises(SnapGridError, match="^linearly dependent columns: ") as exc_info:
        ols_fit(X, rng.normal(size=20), ("intercept", "base", "doubled"))
    assert "doubled" in str(exc_info.value) or "base" in str(exc_info.value)


def test_ols_underdetermined():
    X = np.ones((3, 3))
    with pytest.raises(SnapGridError, match="^3 observations cannot support 3 coefficients$"):
        ols_fit(X, np.zeros(3), ("a", "b", "c"))


# ---------------------------------------------------------------------------
# likelihood-ratio tests


def planted_fit(n=60, seed=5, include_noise_col=False):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 2.0 + 3.0 * x1 + rng.normal(scale=0.5, size=n)
    cols = [np.ones(n), x1, x2] if include_noise_col else [np.ones(n), x1]
    names = ("intercept", "x1", "x2") if include_noise_col else ("intercept", "x1")
    return ols_fit(np.column_stack(cols), y, names)


def test_lr_identical_models():
    fit = planted_fit()
    result = lr_test(fit, fit)
    assert result.chisq == 0.0
    assert result.p_value == 1.0


def test_lr_strong_predictor_is_significant():
    full = planted_fit()
    n = full.n
    rng = np.random.default_rng(5)
    x1 = rng.normal(size=n)
    y = 2.0 + 3.0 * x1 + rng.normal(scale=0.5, size=n)
    reduced = ols_fit(np.ones((n, 1)), y, ("intercept",))
    result = lr_test(full, reduced)
    assert result.chisq > 50
    assert result.p_value < 0.001


def test_lr_p_value_is_the_chi_square_tail():
    # dropping the noise column gives a statistic far from both tails
    result = lr_test(planted_fit(include_noise_col=True), planted_fit())
    assert 0.01 < result.p_value < 0.99
    assert result.p_value == float(stats.chi2.sf(result.chisq, 1))


def test_lr_null_column_p_is_roughly_uniform():
    ps = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = 40
        x1 = rng.normal(size=n)
        noise_col = rng.normal(size=n)
        y = 1.0 + 2.0 * x1 + rng.normal(size=n)
        full = ols_fit(
            np.column_stack([np.ones(n), x1, noise_col]), y, ("intercept", "x1", "junk")
        )
        reduced = ols_fit(np.column_stack([np.ones(n), x1]), y, ("intercept", "x1"))
        ps.append(lr_test(full, reduced).p_value)
    assert 0.4 < float(np.mean(ps)) < 0.6


def test_lr_rejects_non_nested():
    fit_a = planted_fit()
    n = fit_a.n
    rng = np.random.default_rng(6)
    other = ols_fit(
        np.column_stack([np.ones(n), rng.normal(size=n)]),
        rng.normal(size=n),
        ("intercept", "unrelated"),
    )
    with pytest.raises(SnapGridError, match=r"^reduced model is not nested; extra columns: \['unrelated'\]$"):
        lr_test(fit_a, other)


def test_lr_chisq_nonnegative():
    rng = np.random.default_rng(7)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 30
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = rng.normal(size=n)
        full = ols_fit(X, y, ("intercept", "a", "b"))
        reduced = ols_fit(X[:, :2], y, ("intercept", "a"))
        assert lr_test(full, reduced).chisq >= 0.0


def test_stars_thresholds():
    assert stars(0.0005) == "***"
    assert stars(0.005) == "**"
    assert stars(0.05) == "."
    assert stars(0.5) == ""


# ---------------------------------------------------------------------------
# report and CSV round trip


def test_regression_report_layout():
    rng = np.random.default_rng(9)
    cities = []
    for i in range(40):
        cities.append(
            city(
                i,
                total_snaps=float(rng.integers(10_000, 90_000)),
                driving_snaps=float(rng.integers(1_000, 30_000)),
                population=float(rng.integers(100_000, 5_000_000)),
                male_pct=float(rng.uniform(46, 75)),
                age_lt20_pct=float(rng.uniform(15, 45)),
                age_20_40_pct=float(rng.uniform(25, 45)),
                age_40_60_pct=float(rng.uniform(15, 30)),
                developing=bool(rng.integers(0, 2)),
            )
        )
    report = regression_report(cities)
    assert [t.term for t in report.terms] == list(DESIGN_TERMS)
    assert report.n == 40
    intercept = report.terms[0]
    assert intercept.lr_chisq is None and intercept.lr_p_value is None
    for term in report.terms[1:]:
        assert term.lr_chisq is not None and term.lr_chisq >= 0.0


def test_city_stats_csv_round_trip(tmp_path):
    cities = [city(0), city(1, male_pct=None, developing=None)]
    path = tmp_path / "stats.csv"
    write_city_stats(cities, path)
    loaded = load_city_stats(path)
    assert loaded == cities
