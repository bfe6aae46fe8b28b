"""Property tests (Hypothesis); example counts are kept small."""

import numpy as np
from hypothesis import given, settings, strategies as st

from oracle import exact_estimator_means

from dfakit.core import weight_matrix
from dfakit.estimators import (
    GappedSeries,
    dfa,
    ensemble,
    f_hat,
    f_tilde,
    gap_weights,
)
from dfakit.expectation import (
    expected_curve,
    expected_f2_general,
)
from dfakit.exceptions import AllPairsMissingError
from dfakit.generators import add_polynomial_trend, block_gap_mask
from dfakit.models import (
    AR1,
    FBM,
    FGN,
    OU,
    AcvfTable,
    VariogramTable,
    WhiteNoise,
    fbm_covariance,
)
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
    pa = np.abs(gap_weights(mask, s) * weight_matrix(m, s).entries)
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
            got = curves[key].f2[r]
            assert curves[key].reasons[r] == ref.reasons
            assert np.array_equal(np.isnan(got), np.isnan(ref.f2))
            for i, s in enumerate(ref.scales):
                if np.isnan(ref.f2[i]):
                    continue
                size = _term_size(row, mask, m, int(s), key)
                assert abs(got[i] - ref.f2[i]) <= 1e-12 * (
                    abs(ref.f2[i]) + size), (key, int(s))


@settings(max_examples=20, deadline=None)
@given(stacks(), st.randoms(use_true_random=False))
def test_ensemble_independent_of_scale_order(case, rnd):
    """Each scale is computed on its own: a permuted grid gives the
    permuted curves, bit for bit."""
    x, mask, m, scales = case
    order = list(range(len(scales)))
    rnd.shuffle(order)
    ref = ensemble(x, mask, m, scales)
    got = ensemble(x, mask, m, [scales[i] for i in order])
    for key in ref:
        for a, b, ra, rb in zip(ref[key].f2, got[key].f2, ref[key].reasons,
                                got[key].reasons):
            assert np.array_equal(b[np.argsort(order)], a,
                                  equal_nan=True), key
            assert tuple(rb[j] for j in np.argsort(order)) == ra


@settings(max_examples=20, deadline=None)
@given(stacks())
def test_gap_free_mask_collapses_to_dfa(case):
    """An all-True mask takes the direct path: f_hat = f_tilde = dfa,
    bit for bit, per replicate and within a stack. (A stack and a single
    replicate may round differently: BLAS blocks the products by shape.)
    """
    x, _, m, scales = case
    full = np.ones(x.shape[1], bool)
    curves = ensemble(x, full, m, scales)
    for r, row in enumerate(x):
        ref = dfa(row, m, scales).f2
        gs = GappedSeries(row, full)
        assert np.array_equal(f_hat(gs, m, scales).f2, ref)
        assert np.array_equal(f_tilde(gs, m, scales).f2, ref)
        for key in ("f_hat", "f_tilde"):
            assert np.array_equal(curves[key].f2[r],
                                  curves["standard"].f2[r]), key


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(m + 2, 256))))
def test_weight_function_is_diagonal_sums_of_weight_matrix(case):
    m, s = case
    a = weight_matrix(m, s).entries
    ref = np.array([a.trace(offset=j) for j in range(s)])
    got = weight_function(m, s)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def _abs_profile_size(x, s):
    """Size of the profile terms dfa sums at scale s, before the fit
    cancels the trend: the mean of cumsum(|x_w|)^2 over windows."""
    w = x.size // s
    y = np.cumsum(np.abs(x[: w * s].reshape(w, s)), axis=1)
    return np.sum(y * y) / (w * s)


@st.composite
def trended(draw):
    """A noise or walk, m, scales and a trend of degree below m."""
    m = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(24, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=n) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    if draw(st.booleans()):
        x = np.cumsum(x)
    beta = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                  max_size=m)))
    beta *= draw(st.sampled_from([1.0, 1e3]))
    scales = draw(st.lists(st.integers(m + 2, n), min_size=1, max_size=6,
                           unique=True))
    return x, add_polynomial_trend(x, beta), m, scales


@settings(max_examples=25, deadline=None)
@given(trended())
def test_dfa_invariant_to_polynomial_trend(case):
    """dfa(x + trend) = dfa(x) for a trend of degree below m: its profile
    has degree at most m, which the order-m fit removes.

    The rounding error of the fit grows with the trend's terms, so the
    bound scales with sqrt(f2 * size), size being the profile of |x|
    (worst seen: 1.3e-15). A trend left in the residual would move f2 by
    about size. f_hat and f_tilde are left out: on gapped input a
    window's missing points break the cancellation, so they are not
    trend invariant (relative changes above 1e6 measured).
    """
    x, xt, m, scales = case
    ref, got = dfa(x, m, scales), dfa(xt, m, scales)
    for i, s in enumerate(ref.scales):
        size = _abs_profile_size(xt, int(s))
        assert abs(got.f2[i] - ref.f2[i]) <= 1e-13 * (
            ref.f2[i] + np.sqrt(ref.f2[i] * size)), int(s)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(m + 2, 64))),
       st.integers(0, 10 ** 4), st.floats(0.02, 0.98))
def test_general_engine_is_invariant_to_window_offset(case, t, h):
    """The window-offset engine at any offset t equals the increment
    engine on fBm and the stationary engine on fGn.

    The fBm kernel grows like t^{2h}, far above E F^2 at large t, and
    its terms cancel (relative errors up to 5e-6 at m = 4, s = 6,
    t = 1000, h = 0.98), so the bound scales with
    sum |A o gamma(t+k, t+j)| / s (worst seen over about 1,000 cases:
    5.6e-14 of it, some 250 eps).
    """
    m, s = case
    idx = t + np.arange(1, s + 1)
    a = weight_matrix(m, s).entries
    fbm = FBM(1 + h)

    def motion(t1, t2):
        return fbm_covariance(fbm.hurst - 1.0, fbm.variance, t1, t2)

    def noise(t1, t2):
        return FGN(h, 1.0).acvf(t1 - t2)

    for kernel, ref in ((motion, expected_curve(fbm, m, [s])[0]),
                        (noise, expected_curve(FGN(h), m, [s])[0])):
        size = np.abs(a * kernel(idx[:, None], idx[None, :])).sum() / s
        got = expected_f2_general(kernel, m, s, t)
        assert abs(got - ref) <= 1e-12 * size, (kernel, got, ref)


#: a table long enough for every scale drawn below
_TABLE = AcvfTable(tuple(0.99 ** np.arange(4096)))


@st.composite
def curve_cases(draw):
    """A model of each engine, an order and a scale set in m + 2..4096."""
    kind = draw(st.sampled_from(["fgn", "fbm", "ou", "ar1", "white",
                                 "table"]))
    m = draw(st.integers(1 if kind == "fbm" else 0, 4))
    model = {
        "fgn": lambda: FGN(draw(st.floats(0.01, 0.99))),
        "fbm": lambda: FBM(draw(st.floats(1.01, 1.99))),
        "ou": lambda: OU(draw(st.floats(0.1, 1e3))),
        "ar1": lambda: AR1(draw(st.sampled_from([-0.999, -0.6, 0.3,
                                                 0.999]))),
        "white": lambda: WhiteNoise(draw(st.floats(0.1, 10.0))),
        "table": lambda: _TABLE,
    }[kind]()
    scales = draw(st.lists(st.integers(m + 2, 4096), min_size=1, max_size=6,
                           unique=True))
    return model, m, sorted(scales)


@settings(max_examples=25, deadline=None)
@given(curve_cases())
def test_expected_curve_matches_per_scale_engine(case):
    """Reading each scale's lags off one evaluation at the largest scale
    gives the same bits as evaluating the model at that scale alone."""
    model, m, scales = case
    grid = expected_curve(model, m, scales)
    alone = [expected_curve(model, m, [s])[0] for s in scales]
    assert np.array_equal(grid, alone)


def _variogram_table(model) -> VariogramTable:
    """S(0..599) = 2 (gamma(0) - gamma(0..599)) of a stationary model."""
    g = model.acvf(np.arange(600))
    return VariogramTable(tuple(2.0 * (g[0] - g)))


@st.composite
def memo_cases(draw):
    """A model of each package type, m = 1..3, a grid in
    m + 1..600 in any order, repeats allowed, and a part of it."""
    kind = draw(st.sampled_from(["white", "fgn", "ou", "ar1", "acvf-table",
                                 "fbm", "variogram-table", "derived"]))
    h = draw(st.floats(0.05, 0.95))
    acvf_model = {
        "white": lambda: WhiteNoise(draw(st.floats(0.1, 10.0))),
        "fgn": lambda: FGN(h, draw(st.floats(0.1, 10.0))),
        "ou": lambda: OU(draw(st.floats(0.5, 100.0)),
                         draw(st.floats(0.1, 10.0))),
        "ar1": lambda: AR1(draw(st.floats(-0.99, 0.99))),
        "acvf-table": lambda: AcvfTable(tuple(FGN(h).acvf(np.arange(600)))),
    }
    model = {
        "fbm": lambda: FBM(1 + h, draw(st.floats(0.1, 10.0))),
        "variogram-table": lambda: VariogramTable(
            tuple(FBM(1 + h).variogram(np.arange(600)))),
        "derived": lambda: _variogram_table(
            acvf_model[draw(st.sampled_from(sorted(acvf_model)))]()),
    }.get(kind, acvf_model.get(kind))()
    m = draw(st.integers(1, 3))
    scales = draw(st.lists(st.integers(m + 1, 600), min_size=1, max_size=8))
    part = draw(st.lists(st.sampled_from(scales), max_size=len(scales)))
    return model, m, scales, part


@settings(max_examples=15, deadline=None)
@given(memo_cases())
def test_memo_gives_the_bits_of_a_fresh_evaluation(case):
    """expected_curve gives the same bits on a second call, after a call
    on part of the grid and one scale at a time."""
    model, m, scales, part = case
    cold = expected_curve(model, m, scales).tobytes()
    assert expected_curve(model, m, scales).tobytes() == cold
    expected_curve(model, m, part)
    assert expected_curve(model, m, scales).tobytes() == cold
    single = [expected_curve(model, m, [s]) for s in scales]
    assert np.concatenate(single).tobytes() == cold


@st.composite
def oracle_cases(draw):
    """A model of each kind, a block or iid mask, m = 1..3 and scales."""
    kind = draw(st.sampled_from(["white", "fgn", "ou", "ar1", "fbm"]))
    model = {
        "white": lambda: WhiteNoise(draw(st.floats(0.1, 10.0))),
        "fgn": lambda: FGN(draw(st.floats(0.05, 0.95))),
        "ou": lambda: OU(draw(st.floats(0.5, 100.0))),
        "ar1": lambda: AR1(draw(st.sampled_from([-0.6, 0.3, 0.9]))),
        "fbm": lambda: FBM(draw(st.floats(1.05, 1.95))),
    }[kind]()
    n = draw(st.integers(64, 256))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    fraction = draw(st.floats(0.05, 0.3))
    if draw(st.booleans()):
        mask = block_gap_mask(n, fraction, draw(st.floats(1.0, 12.0)), seed)
    else:
        mask = np.random.default_rng(seed).random(n) >= fraction
    mask[0] = True
    scales = draw(st.lists(st.integers(m + 2, n // 2), min_size=1,
                           max_size=5, unique=True))
    return model, mask, m, sorted(scales)


def _all_pairs_covered(mask, s):
    try:
        return bool((gap_weights(mask, s) > 0).all())
    except AllPairsMissingError:
        return False


@settings(max_examples=15, deadline=None)
@given(oracle_cases())
def test_exact_means_from_the_engine(case):
    """Summed over the columns of the covariance factor, the engine gives
    E F^2 of each estimator exactly: standard equals expected_curve, and
    where every pair of a window is present together somewhere, f_hat is
    unbiased, and so is f_tilde on stationary input (the paper's claims;
    f_tilde on a motion is not)."""
    model, mask, m, scales = case
    means = exact_estimator_means(model, mask, m, scales)
    expected = expected_curve(model, m, scales)
    np.testing.assert_allclose(means["standard"], expected, rtol=1e-12)
    covered = [_all_pairs_covered(mask, s) for s in scales]
    np.testing.assert_allclose(means["f_hat"][covered], expected[covered],
                               rtol=1e-11)
    if not isinstance(model, FBM):
        np.testing.assert_allclose(means["f_tilde"][covered],
                                   expected[covered], rtol=1e-11)
