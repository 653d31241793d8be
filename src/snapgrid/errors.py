"""Exceptions of the snapgrid package.

Library code signals a bad input or an undefined result with
:class:`SnapGridError`, which the CLI turns into one stderr line and exit
1. A subclass exists only where a caller catches it by name, to act on it
differently from other failures; ``tests/test_package.py`` enforces this.
"""


class SnapGridError(ValueError):
    """Invalid input or an undefined result; the message says which."""


class ConfigError(SnapGridError):
    """Bad configuration or a missing or mismatched intermediate; the CLI exits 2."""


class EmptyInputError(SnapGridError):
    """Nothing to compute over; ``temporal.week_vectors`` drops such a city."""


class DegenerateSampleError(SnapGridError):
    """The sample cannot support a distribution fit; ``spatial.compare_fits`` records it per family."""
