"""Property tests (Hypothesis); example counts are kept small."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dfakit.core import weight_matrix
from dfakit.estimators import (
    GappedSeries,
    dfa,
    ensemble,
    f_hat,
    f_tilde,
    gap_weights,
)
from dfakit.generators import block_gap_mask
from dfakit.weights import weight_function


@st.composite
def stacks(draw):
    """An (R, n) stack of noises or walks, a block-gap mask, m and scales."""
    reps = draw(st.integers(1, 4))
    n = draw(st.integers(24, 240))
    m = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(reps, n)) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    if draw(st.booleans()):
        x = np.cumsum(x, axis=1)
    x += draw(st.sampled_from([0.0, 55.5]))
    mask = block_gap_mask(n, draw(st.floats(0.05, 0.6)),
                          draw(st.floats(1.0, 20.0)), seed)
    mask[rng.integers(n)] = True
    scales = draw(st.lists(st.integers(m + 2, n), min_size=1, max_size=6,
                           unique=True))
    return x, mask, m, scales


def _term_size(x, mask, m, s, key):
    """Size of the terms an estimator sums at scale s.

    Rounding errors scale with it, while a batching fault (a wrong
    window, weight or replicate) moves f2 by about f2 itself. The
    product kernel sums terms far larger than f2 when the offset is
    large against the spread.
    """
    w = x.size // s
    xw = x[: w * s].reshape(w, s)
    if key == "standard":
        y = np.cumsum(xw - xw[:, :1], axis=1)
        return np.sum(y * y) / (w * s)
    dw = mask[: w * s].reshape(w, s)
    if not dw.any():
        return 0.0
    if key == "f_hat":
        xw = xw - xw[np.arange(w), dw.argmax(axis=1)][:, None]
    y = np.abs(np.where(dw, xw, 0.0))
    pa = np.abs(gap_weights(mask, s).p * weight_matrix(m, s).entries)
    return np.einsum("wk,kj,wj->", y, pa, y) / (w * s)


@settings(max_examples=30, deadline=None)
@given(stacks())
def test_ensemble_equals_per_replicate_calls(case):
    x, mask, m, scales = case
    curves = ensemble(x, mask, m, scales)
    for r, row in enumerate(x):
        gs = GappedSeries(row, mask)
        for key, ref in (("standard", dfa(row, m, scales)),
                         ("f_hat", f_hat(gs, m, scales)),
                         ("f_tilde", f_tilde(gs, m, scales))):
            got = curves[key][r]
            assert got.reasons == ref.reasons
            assert np.array_equal(np.isnan(got.f2), np.isnan(ref.f2))
            for i, s in enumerate(ref.scales):
                if np.isnan(ref.f2[i]):
                    continue
                size = _term_size(row, mask, m, int(s), key)
                assert abs(got.f2[i] - ref.f2[i]) <= 1e-12 * (
                    abs(ref.f2[i]) + size), (key, int(s))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(m + 2, 256))))
def test_weight_function_is_diagonal_sums_of_weight_matrix(case):
    m, s = case
    a = weight_matrix(m, s).entries
    ref = np.array([a.trace(offset=j) for j in range(s)])
    got = weight_function(m, s).values
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
