"""Fixtures shared by every test module."""

import pytest

from dfakit import cli


@pytest.fixture(autouse=True)
def _forget_cli_curve():
    """Empty the CLI's slot of the last curve, so that whether a command
    evaluates its lags does not depend on the tests run before it."""
    cli._last_curve.cache_clear()
