"""Analytics toolkit for geo-tagged short-video posts.

The pipeline runs: ingest raw snap records, adjudicate human annotations,
vote per-frame classifier scores into clip labels, then measure where
(metric tile grids + distribution fits), when (local-time profiles,
weekly clustering), and among whom (demographic regression) driving clips
occur. A seeded synthetic generator with planted ground truth exercises
every stage end to end.
"""

from .errors import SnapGridError
from .geo import GeoPoint, Region, TileGrid, TileIndex, build_grid, locate, point_in_polygon
from .records import (
    DRIVING,
    NON_DRIVING,
    SnapRecord,
    parse_snaps,
    write_snaps,
)
from .annotation import AnnotationMatrix, adjudicate, fleiss_kappa, matrix_from_long
from .voting import (
    VotingRule,
    aggregate_votes,
    classify_scores,
    evaluate,
    extent,
)
from .spatial import FittedDistribution, compare_fits, fit_mle, tile_counts
from .temporal import (
    HourlyProfile,
    NightWindow,
    elbow_curve,
    embed_2d,
    hourly_profile,
    kmeans,
    night_uplift,
    pearson,
    silhouette,
    week_vector,
    week_vectors,
)
from .regression import CityStats, lr_test, ols_fit, regression_report
from .synth import SynthSpec, default_spec, gen_corpus, gen_regression_cities

__version__ = "0.1.0"

__all__ = [
    "SnapGridError",
    "GeoPoint",
    "Region",
    "TileGrid",
    "TileIndex",
    "build_grid",
    "locate",
    "point_in_polygon",
    "DRIVING",
    "NON_DRIVING",
    "SnapRecord",
    "parse_snaps",
    "write_snaps",
    "AnnotationMatrix",
    "adjudicate",
    "fleiss_kappa",
    "matrix_from_long",
    "VotingRule",
    "aggregate_votes",
    "classify_scores",
    "evaluate",
    "extent",
    "FittedDistribution",
    "compare_fits",
    "fit_mle",
    "tile_counts",
    "HourlyProfile",
    "NightWindow",
    "elbow_curve",
    "embed_2d",
    "hourly_profile",
    "kmeans",
    "night_uplift",
    "pearson",
    "silhouette",
    "week_vector",
    "week_vectors",
    "CityStats",
    "lr_test",
    "ols_fit",
    "regression_report",
    "SynthSpec",
    "default_spec",
    "gen_corpus",
    "gen_regression_cities",
    "__version__",
]
