"""The one order rule (core._check_order) across the public functions
that take an order m: a derandomized Hypothesis property, and plain
regression tests for the defects it finds.

Run the property longer with `--hypothesis-profile=long` (conftest.py).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfakit import expectation, weights
from dfakit.core import design_matrix, weight_matrix
from dfakit.estimators import GappedSeries, default_scale_grid, dfa, f_hat
from dfakit.expectation import (
    asymptotic_lambda,
    correction_function,
    expected_curve,
)
from dfakit.models import FGN
from dfakit.weights import (
    asymptotic_coefficients,
    asymptotic_inverse_gram,
    asymptotic_weight,
    closed_form_g,
    weight_function,
)

_X = np.random.default_rng(7).standard_normal(64)
_MASK = np.random.default_rng(8).random(64) > 0.2

#: one call per function, of the order alone
CALLS = {
    "design_matrix": lambda m: design_matrix(m, 10),
    "weight_matrix": lambda m: weight_matrix(m, 10),
    "weight_function": lambda m: weight_function(m, 10),
    "closed_form_g": lambda m: closed_form_g(m, 3, 10, exact=True),
    "asymptotic_coefficients": asymptotic_coefficients,
    "asymptotic_inverse_gram": asymptotic_inverse_gram,
    "asymptotic_lambda": lambda m: asymptotic_lambda(m, 0.7),
    "asymptotic_weight": lambda m: asymptotic_weight(m, 3, 10),
    "expected_curve": lambda m: expected_curve(FGN(0.7), m, [10, 16]),
    "correction_function": lambda m: correction_function(m, 0.7, 16),
    "default_scale_grid": lambda m: default_scale_grid(100, m),
    "dfa": lambda m: dfa(_X, m, [10, 16]),
    "f_hat": lambda m: f_hat(GappedSeries(_X, _MASK), m, [10, 16]),
}

#: the ways an integral order can be given
VARIANTS = (int, float, np.int64)


def _clear_caches():
    """Empty every cache of the modules that derive per order, so that
    the next call of an order is cold."""
    for mod in (weights, expectation):
        for f in vars(mod).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


@pytest.fixture(scope="module", autouse=True)
def _cold_module():
    """The module starts with every cache empty, as a fresh process
    would, whatever ran before it."""
    _clear_caches()


def _canon(v):
    """A value in a form that compares equal only for equal results:
    arrays by dtype, shape and bytes, scalars with their type."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if dataclasses.is_dataclass(v):
        return type(v).__name__, tuple((f.name, _canon(getattr(v, f.name)))
                                       for f in dataclasses.fields(v))
    if isinstance(v, (tuple, list)):
        return tuple(map(_canon, v))
    if isinstance(v, float):
        return "float", v.hex()
    return type(v).__name__, v


def _outcome(call, m):
    try:
        return _canon(call(m))
    except Exception as e:  # the property compares what is raised
        return type(e)


@settings(derandomize=True, deadline=None)
@given(m=st.integers(0, 8), bad=st.sampled_from([1.5, -1]), data=st.data())
def test_an_integral_order_is_that_integer(m, bad, data):
    """m, float(m) and np.int64(m) give equal results, or raise the same
    exception type, whatever the order of the calls: each call is made
    twice, and the first example of an order makes its first calls on
    empty caches. 1.5 and -1 raise a ValueError that names the order.

    (Emptying the caches for every example would derive the closed form
    of its order each time: about 3 s for 100 examples.)"""
    order = data.draw(st.permutations(
        [(name, v) for name in CALLS for v in (*VARIANTS, None)]))
    outcomes = {name: [] for name in CALLS}
    for _ in range(2):  # cold, then cached
        for name, v in order:
            if v is None:
                with pytest.raises(ValueError, match=r"\border\b"):
                    CALLS[name](bad)
            else:
                outcomes[name].append(_outcome(CALLS[name], v(m)))
    for name, got in outcomes.items():
        assert all(g == got[0] for g in got), name


@pytest.mark.parametrize("name,m,variant", [
    ("asymptotic_coefficients", 2, float),
    ("asymptotic_inverse_gram", 2, float),
    ("asymptotic_lambda", 2, float),
    ("asymptotic_lambda", 6, np.int64),
    ("asymptotic_lambda", 7, np.int64),
    ("asymptotic_lambda", 8, np.int64),
])
def test_cold_integral_order(name, m, variant):
    # a float order raised TypeError, and a NumPy one overflowed int64
    # while the closed form was derived
    _clear_caches()
    assert _outcome(CALLS[name], variant(m)) == _outcome(CALLS[name], m)


@pytest.mark.parametrize("call,match", [
    (lambda: asymptotic_weight(2, 3, 10.5), "scale 10.5 is not an integer"),
    (lambda: asymptotic_weight(2, 1.5, 10), r"lag 1\.5 outside 0\.\.9"),
    (lambda: default_scale_grid(100, 1.5), "order 1.5 is not an integer"),
    (lambda: default_scale_grid(100, -3), "order must be >= 0, got -3"),
], ids=["asymptotic-weight-scale", "asymptotic-weight-lag",
        "scale-grid-fractional-order", "scale-grid-negative-order"])
def test_refused_argument(call, match):
    # each used to return a number (or, for -3, a log10 warning)
    with pytest.raises(ValueError, match=match):
        call()
