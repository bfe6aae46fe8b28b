"""Tests for the sample and gap-tolerant estimators."""

import numpy as np
import pytest

from dfakit.estimators import (
    NO_VALID_PAIRS,
    GappedSeries,
    default_scale_grid,
    dfa,
    estimate_hurst,
    f_hat,
    f_tilde,
    gap_weights,
)
from dfakit.core import weight_matrix
from dfakit.exceptions import (
    AllPairsMissingError,
    NonFiniteValueError,
    OrderZeroUnsupportedError,
    ScaleExceedsLengthError,
    TooFewPointsError,
)
from dfakit.expectation import expected_f2_stationary
from dfakit.generators import gen_fgn
from dfakit.models import FGN


class TestDfa:
    def test_hand_value(self):
        c = dfa([0.0, 1.0, 0.0], 1, [3])
        assert c.f2[0] == pytest.approx(1 / 18, rel=1e-12)
        assert c.f[0] == pytest.approx(np.sqrt(1 / 18), rel=1e-12)

    def test_trend_annihilation(self):
        t = np.arange(1, 201, dtype=float)
        series = 2.0 + 0.3 * t  # order-1 trend, analyzed with m=2
        c = dfa(series, 2, [8, 25, 50])
        assert np.all(np.abs(c.f2) < 1e-7)

    def test_window_averaging(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        c = dfa(x, 1, [10])
        assert c.n_windows[0] == 3
        from dfakit.core import residual_variance_increment, weight_matrix
        a = weight_matrix(1, 10)
        per = [residual_variance_increment(x[i:i + 10], a)
               for i in (0, 10, 20)]
        assert c.f2[0] == pytest.approx(np.mean(per), rel=1e-12)

    def test_tail_discarded(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        assert dfa(x, 1, [10]).f2[0] == dfa(x[:20], 1, [10]).f2[0]

    def test_order_zero_supported(self):
        c = dfa(np.array([1.0, 2.0, 4.0, 8.0]), 0, [4])
        assert c.f2[0] > 0

    def test_matches_expectation_engine(self):
        n = 2**15
        x = gen_fgn(0.7, 1.0, n, 909)
        scales = [16, 64, 256, 1024]
        c = dfa(x, 2, scales)
        for i, s in enumerate(scales):
            expect = expected_f2_stationary(FGN(0.7), 2, s)
            w = n // s
            # crude per-scale standard error from window spread
            se = expect * np.sqrt(2.0 * s / n) * 3
            assert abs(c.f2[i] - expect) < max(3 * se, 0.5 * expect)

    def test_scale_exceeds_length(self):
        with pytest.raises(ScaleExceedsLengthError):
            dfa(np.ones(10), 1, [11])


class TestGapWeights:
    def test_no_gaps(self):
        gw = gap_weights(np.ones(20, bool), 5)
        assert np.all(gw.p == 1.0)
        assert gw.defined.all()

    def test_half_windows_missing_pair(self):
        mask = np.ones(20, bool)
        mask[2] = False   # kills pairs involving k=3 in window 0
        mask[7] = False   # and k=3 in window 1; windows 2,3 intact
        gw = gap_weights(mask, 5)
        assert gw.p[2, 0] == pytest.approx(2.0)
        assert gw.p[0, 0] == pytest.approx(1.0)

    def test_pair_never_present(self):
        mask = np.ones(10, bool)
        mask[np.arange(10) % 5 == 2] = False  # position 3 of every window
        gw = gap_weights(mask, 5)
        assert not gw.defined[2, 2]
        assert gw.p[2, 2] == 0.0

    def test_all_pairs_missing(self):
        with pytest.raises(AllPairsMissingError):
            gap_weights(np.zeros(10, bool) | False, 5)

    def test_empty_window_numerator_flag(self):
        mask = np.ones(20, bool)
        mask[5:10] = False  # window 1 fully missing
        assert gap_weights(mask, 5).n_windows == 4
        assert gap_weights(mask, 5, count_empty_windows=False).n_windows == 3


class TestGapFreeCollapse:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bitwise_equal(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(50, 300)))
            scales = default_scale_grid(x.size, m, count=8)
            gs = GappedSeries(x, np.ones(x.size, bool))
            ref = dfa(x, m, scales).f2
            assert np.array_equal(f_hat(gs, m, scales).f2, ref)
            assert np.array_equal(f_tilde(gs, m, scales).f2, ref)


class TestFHat:
    def test_single_complete_window(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=20)
        mask = np.zeros(20, bool)
        mask[5:10] = True  # only window 1 complete, everything else missing
        gs = GappedSeries(x, mask)
        c = f_hat(gs, 1, [5])
        from dfakit.core import residual_variance_increment, weight_matrix
        a = weight_matrix(1, 5)
        # p = 4 windows / 1 present pair everywhere; the average over the
        # 4 windows cancels the factor 4 for the single live window
        assert c.f2[0] == pytest.approx(
            residual_variance_increment(x[5:10], a), rel=1e-9)

    def test_level_shift_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=200)
        mask = rng.random(200) > 0.2
        gs1 = GappedSeries(x, mask)
        gs2 = GappedSeries(x + 55.5, mask)
        scales = [5, 10, 20]
        c1, c2 = f_hat(gs1, 2, scales), f_hat(gs2, 2, scales)
        assert np.allclose(c1.f2, c2.f2, rtol=1e-9)

    def test_trend_invariance_with_gaps(self):
        rng = np.random.default_rng(13)
        n = 400
        x = rng.normal(size=n)
        t = np.arange(1, n + 1, dtype=float)
        trend = 1.0 + 0.02 * t  # order 1, analyzed with m=2
        mask = rng.random(n) > 0.15
        scales = [6, 12, 25, 50]
        c1 = f_hat(GappedSeries(x, mask), 2, scales)
        c2 = f_hat(GappedSeries(x + trend, mask), 2, scales)
        # with gaps the pair reweighting makes detrending approximate
        # rather than exact, so allow a small relative discrepancy
        assert np.allclose(c2.f2, c1.f2, rtol=0.1)
        # the gap-free limit restores exact invariance
        full = np.ones(n, bool)
        e1 = f_hat(GappedSeries(x, full), 2, scales)
        e2 = f_hat(GappedSeries(x + trend, full), 2, scales)
        assert np.allclose(e2.f2, e1.f2, rtol=1e-8)

    def test_rejects_order_zero(self):
        gs = GappedSeries(np.ones(10), np.ones(10, bool))
        with pytest.raises(OrderZeroUnsupportedError):
            f_hat(gs, 0, [5])

    def test_no_valid_pairs_marks_undefined(self):
        x = np.ones(30)
        mask = np.zeros(30, bool)
        mask[0] = True  # scale 30: window 0 has one pair; scale 10 also
        gs = GappedSeries(x, mask)
        c = f_hat(gs, 1, [10])
        assert c.reasons[0] is None or c.reasons[0] == NO_VALID_PAIRS

    def test_missing_values_are_ignored(self):
        # the masked entries' stored values must not matter
        rng = np.random.default_rng(14)
        x = rng.normal(size=100)
        mask = rng.random(100) > 0.3
        junk = np.where(mask, x, 1e12)
        scales = [5, 10, 20]
        c1 = f_hat(GappedSeries(x, mask), 1, scales)
        c2 = f_hat(GappedSeries(junk, mask), 1, scales)
        assert np.array_equal(c1.f2, c2.f2)

    def test_monotone_information(self):
        # removing gaps never makes more scales undefined (nested masks)
        rng = np.random.default_rng(15)
        x = rng.normal(size=240)
        scales = default_scale_grid(240, 1, count=10)
        base = np.zeros(240, bool)
        base[:10] = True
        rng.shuffle(base)
        undef_counts = []
        mask = base.copy()
        for extra in (0.0, 0.3, 0.6, 1.0):
            add = rng.random(240) < extra
            mask = mask | add
            c = f_hat(GappedSeries(x, mask), 1, scales)
            undef_counts.append(int((~c.defined).sum()))
        assert all(a >= b for a, b in zip(undef_counts, undef_counts[1:]))


def _longdouble_reference(x, mask, m, s):
    """f_hat and f_tilde from their pairwise and product definitions,
    summed in extended precision."""
    w = x.size // s
    pa = (gap_weights(mask, s).p.astype(np.longdouble)
          * weight_matrix(m, s).entries.astype(np.longdouble))
    xw = np.where(mask, x, 0.0)[: w * s].reshape(w, s).astype(np.longdouble)
    dw = mask[: w * s].reshape(w, s)
    avail = dw[:, :, None] & dw[:, None, :]
    diff2 = (xw[:, :, None] - xw[:, None, :]) ** 2
    prod = xw[:, :, None] * xw[:, None, :]
    hat = -(pa * diff2 * avail).sum() / (2 * s * w)
    tilde = (pa * prod * avail).sum() / (s * w)
    return hat, tilde


class TestExpandedFormPrecision:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0.0, 55.5, 1e3])
    def test_matches_longdouble_reference(self, m, offset):
        rng = np.random.default_rng(30 + m)
        scales = [5, 7, 12, 25, 50]
        for x in (rng.normal(size=300), np.cumsum(rng.normal(size=300))):
            mask = rng.random(300) > rng.uniform(0.1, 0.4)
            gs = GappedSeries(x + offset, mask)
            hat = f_hat(gs, m, scales).f2
            tilde = f_tilde(gs, m, scales).f2
            for i, s in enumerate(scales):
                ref_hat, ref_tilde = _longdouble_reference(x + offset, mask,
                                                           m, s)
                assert abs((hat[i] - ref_hat) / ref_hat) <= 1e-12
                assert abs((tilde[i] - ref_tilde) / ref_tilde) <= 1e-10


class TestBadInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gapped_series_rejects_non_finite_present(self, bad):
        x = np.arange(10.0)
        x[4] = bad
        with pytest.raises(NonFiniteValueError):
            GappedSeries(x, np.ones(10, bool))
        mask = np.ones(10, bool)
        mask[4] = False
        assert GappedSeries(x, mask).mask.sum() == 9

    def test_from_values_rejects_inf(self):
        with pytest.raises(NonFiniteValueError):
            GappedSeries.from_values([1.0, np.inf, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dfa_rejects_non_finite(self, bad):
        x = np.random.default_rng(40).normal(size=100)
        x[17] = bad
        with pytest.raises(NonFiniteValueError):
            dfa(x, 2, [10, 20])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_constant_series_has_no_hurst(self, m):
        x = np.full(200, 3.7)
        scales = default_scale_grid(200, m)
        mask = np.random.default_rng(41).random(200) > 0.2
        for curve in (dfa(x, m, scales),
                      f_hat(GappedSeries(x, mask), m, scales)):
            assert np.all(curve.f2 == 0.0)
            with pytest.raises(TooFewPointsError):
                estimate_hurst(curve)


class TestFTilde:
    def test_gap_free_equals_dfa(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=120)
        gs = GappedSeries(x, np.ones(120, bool))
        scales = [5, 12, 30]
        assert np.array_equal(f_tilde(gs, 1, scales).f2, dfa(x, 1, scales).f2)

    def test_gapped_differs_from_f_hat_for_motion(self):
        rng = np.random.default_rng(22)
        x = np.cumsum(rng.normal(size=300)) + 50.0
        mask = rng.random(300) > 0.25
        gs = GappedSeries(x, mask)
        scales = [6, 15, 30]
        a = f_hat(gs, 2, scales).f2
        b = f_tilde(gs, 2, scales).f2
        assert not np.allclose(a, b, rtol=1e-6)


class TestEstimateHurst:
    def test_exact_power_law(self):
        scales = np.array([4, 8, 16, 32, 64])
        from dfakit.estimators import FluctuationCurve
        curve = FluctuationCurve(
            scales=scales, f2=(2.0 * scales.astype(float) ** 0.7) ** 2,
            n_windows=np.ones(5, int), estimator="standard",
            reasons=(None,) * 5)
        fit = estimate_hurst(curve)
        assert fit.hurst == pytest.approx(0.7, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(2.0, rel=1e-10)

    def test_skips_undefined_scales(self):
        scales = np.array([4, 8, 16, 32, 64])
        from dfakit.estimators import FluctuationCurve
        f2 = (1.0 * scales.astype(float) ** 0.5) ** 2
        f2[2] = -1.0
        curve = FluctuationCurve(
            scales=scales, f2=f2, n_windows=np.ones(5, int),
            estimator="f_hat",
            reasons=(None, None, "negative-squared-value", None, None))
        assert estimate_hurst(curve).n_points == 4

    def test_too_few_points(self):
        c = dfa(np.arange(100, dtype=float) % 7, 1, [4, 8, 16])
        with pytest.raises(TooFewPointsError):
            estimate_hurst(c, fit_range=(4, 5))

    def test_fgn_recovers_hurst(self):
        x = gen_fgn(0.7, 1.0, 1368, 55)
        c = dfa(x, 2, default_scale_grid(1368, 2))
        fit = estimate_hurst(c)
        assert fit.hurst == pytest.approx(0.7, abs=0.15)


class TestScaleGrid:
    def test_bounds(self):
        g = default_scale_grid(1368, 2)
        assert g.min() == 4 and g.max() == 342
        assert g.size <= 30

    def test_short_series(self):
        with pytest.raises(ScaleExceedsLengthError):
            default_scale_grid(6, 5)


class TestGappedSeries:
    def test_from_values_nan(self):
        gs = GappedSeries.from_values([1.0, np.nan, 3.0])
        assert gs.mask.tolist() == [True, False, True]

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError):
            GappedSeries(np.ones(3), np.zeros(3, bool))
