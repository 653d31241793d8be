"""Exceptions of the snapgrid package.

Library code signals a bad input or an undefined result with
:class:`SnapGridError`, which the CLI turns into one stderr line and exit
1. A subclass exists only where a caller catches it by name, to act on it
differently from other failures; ``tests/test_package.py`` enforces this.
There are two: the CLI exits 2 on a :class:`ConfigError`, and
``spatial.compare_fits`` records a :class:`DegenerateSampleError` as one
family's failure and goes on with the others.
"""


class SnapGridError(ValueError):
    """Invalid input or an undefined result; the message says which."""


class ConfigError(SnapGridError):
    """Bad configuration or a missing or mismatched intermediate; the CLI exits 2."""


class DegenerateSampleError(SnapGridError):
    """The sample cannot support a distribution fit; ``spatial.compare_fits`` records it per family."""
