"""Demographic regression: which city traits predict driving-clip volume.

The response is ln(driving snaps + 1) and the design follows a fixed term
order: intercept, male share (percent), three age-band proportions, a
developing-country flag, ln(population + 1), and ln(total snaps + 1).
Coefficients come from QR-based ordinary least squares with classical
standard errors; each term's contribution is additionally scored by a
likelihood-ratio test of the model with the term dropped.

Only the ``regress`` stage uses scipy, so ``ols_fit`` and ``lr_test``
import it themselves: ``scipy.linalg`` for the pivoted QR and
``scipy.special`` for the t and chi-square tails (``stdtr``, ``chdtrc``).
Every stage imports this module through the CLI, and scipy's statistics
subpackage alone takes over a second to import.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CollinearityError,
    EmptyInputError,
    InvalidNestingError,
    ShapeError,
    UnderdeterminedError,
)

DESIGN_TERMS = (
    "intercept",
    "male_pct",
    "age_lt20",
    "age_20_40",
    "age_40_60",
    "developing",
    "log_pop",
    "log_total_snaps",
)


@dataclass(frozen=True)
class CityStats:
    """One city's snap totals and census attributes.

    Census fields may be absent (None); such cities are excluded from the
    design matrix with a recorded reason rather than silently dropped.
    Ages are percentages 0-100, as published census tables give them.
    """

    city_id: str
    total_snaps: float
    driving_snaps: float
    population: Optional[float] = None
    male_pct: Optional[float] = None
    age_lt20_pct: Optional[float] = None
    age_20_40_pct: Optional[float] = None
    age_40_60_pct: Optional[float] = None
    developing: Optional[bool] = None

    def __post_init__(self):
        if self.total_snaps < 0 or self.driving_snaps < 0:
            raise ValueError(f"{self.city_id}: snap counts must be nonnegative")


@dataclass(frozen=True)
class Design:
    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]
    city_ids: tuple[str, ...]
    excluded: tuple[tuple[str, str], ...]


def build_design(cities: Sequence[CityStats]) -> Design:
    """Assemble the regression design, excluding cities with missing fields.

    Age percentages enter as proportions (divided by 100) while the male
    share stays on the 0-100 scale, matching how the coefficient
    magnitudes are conventionally reported.
    """
    rows, ys, ids, excluded = [], [], [], []
    for c in cities:
        missing = [
            name
            for name, value in (
                ("population", c.population),
                ("male_pct", c.male_pct),
                ("age_lt20_pct", c.age_lt20_pct),
                ("age_20_40_pct", c.age_20_40_pct),
                ("age_40_60_pct", c.age_40_60_pct),
                ("developing", c.developing),
            )
            if value is None
        ]
        if missing:
            excluded.append((c.city_id, "missing " + ", ".join(missing)))
            continue
        rows.append(
            [
                1.0,
                c.male_pct,
                c.age_lt20_pct / 100.0,
                c.age_20_40_pct / 100.0,
                c.age_40_60_pct / 100.0,
                1.0 if c.developing else 0.0,
                math.log(c.population + 1.0),
                math.log(c.total_snaps + 1.0),
            ]
        )
        ys.append(math.log(c.driving_snaps + 1.0))
        ids.append(c.city_id)
    if not rows:
        raise EmptyInputError("no city has the full set of design fields")
    return Design(
        X=np.array(rows, dtype=float),
        y=np.array(ys, dtype=float),
        columns=DESIGN_TERMS,
        city_ids=tuple(ids),
        excluded=tuple(excluded),
    )


@dataclass(frozen=True)
class OLSResult:
    columns: tuple[str, ...]
    coefs: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    r_squared: float
    ssr: float
    n: int
    df_resid: int

    def coef(self, term: str) -> float:
        return float(self.coefs[self.columns.index(term)])


def ols_fit(X: np.ndarray, y: np.ndarray, columns: Sequence[str]) -> OLSResult:
    """QR-based least squares with classical (homoskedastic) standard errors."""
    from scipy import linalg, special

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ShapeError(f"incompatible shapes X{X.shape}, y{y.shape}")
    n, p = X.shape
    if len(columns) != p:
        raise ShapeError(f"{len(columns)} column names for {p} columns")
    if n <= p:
        raise UnderdeterminedError(f"{n} observations cannot support {p} coefficients")

    # Pivoted QR exposes rank deficiency and names the offending columns.
    _, r_piv, piv = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_piv))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size else 0.0
    rank = int((diag > tol).sum())
    if rank < p:
        dependent = tuple(columns[j] for j in sorted(piv[rank:]))
        raise CollinearityError(f"linearly dependent columns: {', '.join(dependent)}", dependent)

    q, r = np.linalg.qr(X)
    coefs = linalg.solve_triangular(r, q.T @ y)
    resid = y - X @ coefs
    ssr = float(resid @ resid)
    df_resid = n - p
    sigma2 = ssr / df_resid
    r_inv = linalg.solve_triangular(r, np.eye(p))
    cov = sigma2 * (r_inv @ r_inv.T)
    std_errors = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        degenerate = np.where(coefs == 0.0, 0.0, np.inf * np.sign(coefs))
        t_values = np.where(std_errors > 0, coefs / std_errors, degenerate)
    p_values = 2.0 * special.stdtr(df_resid, -np.abs(t_values))

    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        r_squared = 1.0 if ssr <= 1e-12 else 0.0
    else:
        r_squared = 1.0 - ssr / sst
    return OLSResult(
        columns=tuple(columns),
        coefs=coefs,
        std_errors=std_errors,
        t_values=t_values,
        p_values=p_values,
        r_squared=r_squared,
        ssr=ssr,
        n=n,
        df_resid=df_resid,
    )


@dataclass(frozen=True)
class LRTestResult:
    chisq: float
    df: int
    p_value: float


def lr_test(full: OLSResult, reduced: OLSResult) -> LRTestResult:
    """Likelihood-ratio test of a reduced model against the full one.

    Under gaussian errors the statistic is n * ln(SSR_reduced / SSR_full),
    referred to chi-square with df equal to the number of dropped columns.
    The reduced model must use a subset of the full model's columns on the
    same observations.
    """
    from scipy import special

    if full.n != reduced.n:
        raise InvalidNestingError(f"models fit on different n: {full.n} vs {reduced.n}")
    full_cols, red_cols = set(full.columns), set(reduced.columns)
    if not red_cols <= full_cols:
        extra = sorted(red_cols - full_cols)
        raise InvalidNestingError(f"reduced model is not nested; extra columns: {extra}")
    df = len(full_cols) - len(red_cols)
    if df == 0:
        return LRTestResult(chisq=0.0, df=0, p_value=1.0)
    if full.ssr <= 0:
        # perfect full fit: the reduced model is infinitely worse unless it is perfect too
        chisq = 0.0 if reduced.ssr <= 0 else math.inf
    else:
        chisq = max(0.0, full.n * math.log(reduced.ssr / full.ssr))
    p_value = float(special.chdtrc(df, chisq))
    return LRTestResult(chisq=chisq, df=df, p_value=p_value)


def stars(p_value: float) -> str:
    """Significance marker: *** p<0.001, ** p<0.01, . p<0.1."""
    if p_value < 0.001:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.1:
        return "."
    return ""


@dataclass(frozen=True)
class TermReport:
    term: str
    coef: float
    std_error: float
    t_value: float
    p_value: float
    stars: str
    lr_chisq: Optional[float]
    lr_p_value: Optional[float]


@dataclass(frozen=True)
class RegressionReport:
    terms: tuple[TermReport, ...]
    r_squared: float
    n: int
    excluded: tuple[tuple[str, str], ...]


def regression_report(cities: Sequence[CityStats]) -> RegressionReport:
    """Full-model fit plus a per-term drop-one likelihood-ratio column.

    The intercept gets no LR entry; every other term is tested by
    refitting without it.
    """
    design = build_design(cities)
    full = ols_fit(design.X, design.y, design.columns)
    terms = []
    for j, term in enumerate(design.columns):
        if term == "intercept":
            lr_chisq = lr_p = None
        else:
            keep = [i for i in range(len(design.columns)) if i != j]
            reduced = ols_fit(
                design.X[:, keep], design.y, [design.columns[i] for i in keep]
            )
            lr = lr_test(full, reduced)
            lr_chisq, lr_p = lr.chisq, lr.p_value
        terms.append(
            TermReport(
                term=term,
                coef=float(full.coefs[j]),
                std_error=float(full.std_errors[j]),
                t_value=float(full.t_values[j]),
                p_value=float(full.p_values[j]),
                stars=stars(float(full.p_values[j])),
                lr_chisq=lr_chisq,
                lr_p_value=lr_p,
            )
        )
    return RegressionReport(
        terms=tuple(terms), r_squared=full.r_squared, n=full.n, excluded=design.excluded
    )


def load_city_stats(path) -> list[CityStats]:
    """Read city statistics from CSV; empty cells become None (excluded later)."""

    def opt_float(value: str) -> Optional[float]:
        return float(value) if value not in ("", None) else None

    def opt_bool(value: str) -> Optional[bool]:
        if value in ("", None):
            return None
        return value.strip().lower() in ("1", "true", "yes")

    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                CityStats(
                    city_id=row["city_id"],
                    total_snaps=float(row["total_snaps"]),
                    driving_snaps=float(row["driving_snaps"]),
                    population=opt_float(row.get("population")),
                    male_pct=opt_float(row.get("male_pct")),
                    age_lt20_pct=opt_float(row.get("age_lt20_pct")),
                    age_20_40_pct=opt_float(row.get("age_20_40_pct")),
                    age_40_60_pct=opt_float(row.get("age_40_60_pct")),
                    developing=opt_bool(row.get("developing")),
                )
            )
    return out


def write_city_stats(cities: Sequence[CityStats], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "city_id",
                "total_snaps",
                "driving_snaps",
                "population",
                "male_pct",
                "age_lt20_pct",
                "age_20_40_pct",
                "age_40_60_pct",
                "developing",
            ]
        )
        for c in cities:
            writer.writerow(
                [
                    c.city_id,
                    repr(c.total_snaps),
                    repr(c.driving_snaps),
                    "" if c.population is None else repr(c.population),
                    "" if c.male_pct is None else repr(c.male_pct),
                    "" if c.age_lt20_pct is None else repr(c.age_lt20_pct),
                    "" if c.age_20_40_pct is None else repr(c.age_20_40_pct),
                    "" if c.age_40_60_pct is None else repr(c.age_40_60_pct),
                    "" if c.developing is None else ("true" if c.developing else "false"),
                ]
            )
