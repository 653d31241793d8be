"""Exception hierarchy for the snapgrid package.

Every error raised by library code derives from :class:`SnapGridError`,
so callers (and the CLI driver) can catch one base type. Most subclasses
also derive from ``ValueError`` because they signal invalid inputs.
"""


class SnapGridError(Exception):
    """Base class for all snapgrid errors."""


class InvalidRegionError(SnapGridError, ValueError):
    """Region is degenerate or malformed (zero extent, bad bounds)."""


class InvalidPolygonError(SnapGridError, ValueError):
    """Polygon ring is self-intersecting or has too few distinct vertices."""


class CorruptInputError(SnapGridError, ValueError):
    """More than half of an input stream failed to parse."""


class ConfigError(SnapGridError, ValueError):
    """Bad configuration: unknown timezone, missing file, invalid parameter."""


class UnsupportedCategoriesError(SnapGridError, ValueError):
    """Annotation operation requires a binary category set."""


class HeterogeneousRatersError(SnapGridError, ValueError):
    """Annotation matrix rows do not share a constant rater count."""


class DuplicateAnnotationError(SnapGridError, ValueError):
    """The same (item, rater) pair appears twice in the annotation input."""


class EmptyInputError(SnapGridError, ValueError):
    """Operation requires at least one element."""


class ShapeError(SnapGridError, ValueError):
    """Sequence lengths or array shapes do not line up."""


class DegenerateSampleError(SnapGridError, ValueError):
    """Sample cannot support the requested distribution fit."""


class InsufficientFitsError(SnapGridError, ValueError):
    """Fewer than two candidate families fit successfully."""


class UndefinedUpliftError(SnapGridError, ValueError):
    """Night uplift undefined: no posts outside the night window."""


class UndefinedCorrelationError(SnapGridError, ValueError):
    """Correlation undefined for constant input."""


class InvalidKError(SnapGridError, ValueError):
    """Cluster count outside the valid range for the data."""


class UndefinedSilhouetteError(SnapGridError, ValueError):
    """Silhouette undefined: fewer than two clusters or too few points."""


class CollinearityError(SnapGridError, ValueError):
    """Design matrix is rank deficient."""

    def __init__(self, message, dependent_columns=()):
        super().__init__(message)
        self.dependent_columns = tuple(dependent_columns)


class UnderdeterminedError(SnapGridError, ValueError):
    """Fewer observations than design columns."""


class InvalidNestingError(SnapGridError, ValueError):
    """Likelihood-ratio test requires the reduced model to nest in the full one."""
