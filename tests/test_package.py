"""The package's export list."""

import snapgrid


def test_every_exported_name_resolves():
    assert [name for name in snapgrid.__all__ if not hasattr(snapgrid, name)] == []
