"""Fixtures shared by every test module."""

import pytest
from hypothesis import settings

from dfakit import cli

# a long run of the properties that take their example count from the
# profile: pytest --hypothesis-profile=long tests/test_orders.py
settings.register_profile("long", max_examples=3000)


@pytest.fixture(autouse=True)
def _forget_cli_curve():
    """Empty the CLI's slot of the last curve, so that whether a command
    evaluates its lags does not depend on the tests run before it."""
    cli._last_curve.cache_clear()
