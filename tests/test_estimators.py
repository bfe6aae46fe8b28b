"""Tests for the sample and gap-tolerant estimators."""

import tracemalloc

import numpy as np
import pytest

from dfakit import core, estimators
from dfakit.estimators import (
    NEGATIVE_SQUARED,
    NO_VALID_PAIRS,
    FluctuationCurve,
    GappedSeries,
    default_scale_grid,
    dfa,
    ensemble,
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
    ScaleTooSmallError,
    TooFewPointsError,
)
from dfakit.expectation import expected_curve
from dfakit.generators import block_gap_mask, sample
from dfakit.models import FBM, FGN


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
        x = sample(FGN(0.7, 1.0), n, 909)
        scales = [16, 64, 256, 1024]
        c = dfa(x, 2, scales)
        for i, s in enumerate(scales):
            expect = expected_curve(FGN(0.7), 2, [s])[0]
            w = n // s
            # crude per-scale standard error from window spread
            se = expect * np.sqrt(2.0 * s / n) * 3
            assert abs(c.f2[i] - expect) < max(3 * se, 0.5 * expect)

    def test_scale_exceeds_length(self):
        with pytest.raises(ScaleExceedsLengthError):
            dfa(np.ones(10), 1, [11])

    def test_empty_scale_grid(self):
        with pytest.raises(ValueError, match="empty scale grid"):
            dfa(np.arange(10.0), 1, [])


class TestGapWeights:
    def test_no_gaps(self):
        p = gap_weights(np.ones(20, bool), 5)
        assert np.all(p == 1.0)
        assert (p > 0).all()
        assert not p.flags.writeable

    def test_half_windows_missing_pair(self):
        mask = np.ones(20, bool)
        mask[2] = False   # kills pairs involving k=3 in window 0
        mask[7] = False   # and k=3 in window 1; windows 2,3 intact
        p = gap_weights(mask, 5)
        assert p[2, 0] == pytest.approx(2.0)
        assert p[0, 0] == pytest.approx(1.0)

    def test_pair_never_present(self):
        mask = np.ones(10, bool)
        mask[np.arange(10) % 5 == 2] = False  # position 3 of every window
        p = gap_weights(mask, 5)
        assert not (p > 0)[2, 2]
        assert p[2, 2] == 0.0

    def test_all_pairs_missing(self):
        with pytest.raises(AllPairsMissingError):
            gap_weights(np.zeros(10, bool) | False, 5)

    def test_scale_exceeds_mask_length(self):
        with pytest.raises(ScaleExceedsLengthError, match="mask length"):
            gap_weights(np.ones(10, bool), 11)
        # nor does a window of no points fit in it
        with pytest.raises(ScaleTooSmallError, match="scale 0 too small"):
            gap_weights(np.ones(10, bool), 0)

    def test_empty_window_numerator_flag(self):
        mask = np.ones(20, bool)
        mask[5:10] = False  # window 1 fully missing
        # W = 4 counts it: pair (0, 0) is present in 3 windows of 4
        assert gap_weights(mask, 5)[0, 0] == 4 / 3

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_weighted_pair_sums_are_unbiased(self, m):
        # the exact expectations of f_tilde and f_hat on a mask with an
        # all-missing window in which every pair is present somewhere
        n, s = 400, 40
        mask = np.arange(n) % 7 != 0
        mask[80:120] = False
        w = n // s
        dw = mask.reshape(w, s).astype(int)
        counts = dw.T @ dw
        p = gap_weights(mask, s)
        assert (p > 0).all() and not dw.any(axis=1).all()
        pa_counts = p * weight_matrix(m, s).entries * counts
        lag = np.abs(np.subtract.outer(np.arange(s), np.arange(s)))
        for h in (0.3, 0.7):
            got = (pa_counts * FGN(h).acvf(lag)).sum() / (s * w)
            want = expected_curve(FGN(h), m, [s])[0]
            assert got == pytest.approx(want, rel=1e-11)
        for h in (1.1, 1.6):
            got = -(pa_counts * FBM(h).variogram(lag)).sum() / (2 * s * w)
            want = expected_curve(FBM(h), m, [s])[0]
            assert got == pytest.approx(want, rel=1e-11)


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
    """f_hat and f_tilde from their pairwise and product definitions with
    the dense pair weights p * A, summed in extended precision."""
    w = x.size // s
    pa = (gap_weights(mask, s).astype(np.longdouble)
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


class TestEngineMatchesDenseRoute:
    """The engine weighs pairs by A n_win / max(counts, 1) and never
    forms p; it must give the sums of the dense p * A route."""

    @pytest.mark.parametrize("offset", [5.0, 1e3])
    def test_matches(self, offset):
        rng = np.random.default_rng(60)
        n, m = 200, 2
        x = np.cumsum(rng.normal(size=n)) + offset
        mask = rng.random(n) > 0.25
        mask[:110] = False  # empty windows; no present point at s = 110
        mask[np.arange(n) % 8 == 3] = False  # a pair never present at s = 8
        scales = [5, 8, 10, 17, 30, 110]
        gs = GappedSeries(x, mask)
        hat = f_hat(gs, m, scales)
        tilde = f_tilde(gs, m, scales)
        assert not (gap_weights(mask, 8) > 0).all()
        assert hat.reasons[-1] == tilde.reasons[-1] == NO_VALID_PAIRS
        with pytest.raises(AllPairsMissingError):
            gap_weights(mask, 110)
        for i, s in enumerate(scales[:-1]):
            ref_hat, ref_tilde = _longdouble_reference(x, mask, m, s)
            assert hat.f2[i] == pytest.approx(ref_hat, rel=1e-12)
            assert tilde.f2[i] == pytest.approx(ref_tilde, rel=1e-12)


class TestKernelTiles:
    """The engine walks B in tiles of max(1, _BLOCK_VALUES // s) columns;
    the tiles must give the dense route's sums at every width."""

    # TestEngineMatchesDenseRoute's data: empty windows, a pair never
    # present at s = 8, no present point at s = 110
    N, M, SCALES = 200, 2, (5, 8, 10, 17, 30, 110)

    def _data(self, offset, reps=1):
        rng = np.random.default_rng(60)
        x = np.cumsum(rng.normal(size=(reps, self.N)), axis=1) + offset
        mask = rng.random(self.N) > 0.25
        mask[:110] = False
        mask[np.arange(self.N) % 8 == 3] = False
        return x, mask

    @staticmethod
    def _tile_width(monkeypatch, width, s):
        # _BLOCK_VALUES sets the replicate blocks too: narrow tiles also
        # split a stack into blocks of few replicates
        monkeypatch.setattr(core, "_BLOCK_VALUES", width * s)

    @pytest.mark.parametrize("width", [1, 3, "s"])
    @pytest.mark.parametrize("offset", [5.0, 1e3])
    def test_estimators_match_dense_reference(self, monkeypatch, width,
                                              offset):
        x, mask = self._data(offset)
        gs = GappedSeries(x[0], mask)
        for s in self.SCALES:
            self._tile_width(monkeypatch, s if width == "s" else width, s)
            hat = f_hat(gs, self.M, [s])
            tilde = f_tilde(gs, self.M, [s])
            if s == 110:
                assert hat.reasons[0] == tilde.reasons[0] == NO_VALID_PAIRS
                continue
            ref_hat, ref_tilde = _longdouble_reference(x[0], mask, self.M, s)
            assert hat.f2[0] == pytest.approx(ref_hat, rel=1e-12)
            assert tilde.f2[0] == pytest.approx(ref_tilde, rel=1e-12)

    @pytest.mark.parametrize("width", [1, 3, "s"])
    def test_ensemble_matches_dense_route(self, monkeypatch, width):
        x, mask = self._data(20.0, reps=5)
        dense = ensemble(x, mask, self.M, self.SCALES)
        for i, s in enumerate(self.SCALES):
            self._tile_width(monkeypatch, s if width == "s" else width, s)
            tiled = ensemble(x, mask, self.M, [s])
            for key in dense:
                np.testing.assert_allclose(tiled[key].f2[:, 0],
                                           dense[key].f2[:, i], rtol=1e-12)

    def test_f_hat_memory_bounded(self):
        # two dense s x s arrays at s = 4096 took 257 MiB
        n, m = 16384, 2
        x = sample(FGN(0.7), n, seed=3)
        gs = GappedSeries(x, block_gap_mask(n, 0.2, 10.0, seed=4))
        scales = default_scale_grid(n, m)
        tracemalloc.start()
        try:
            f_hat(gs, m, scales)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


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

    @pytest.mark.parametrize("call,match", [
        (lambda: GappedSeries(np.ones((2, 3)), np.ones((2, 3), bool)),
         "1-d and equally long"),
        (lambda: GappedSeries(np.ones(3), np.ones(4, bool)),
         "1-d and equally long"),
        (lambda: dfa(np.ones((2, 50)), 1, [10]), "series must be 1-d"),
        (lambda: dfa(np.ones(50), 1, [[8, 16]]), "scale grid must be 1-d"),
        (lambda: expected_curve(FGN(0.7), 2, [[8, 16]]),
         "scale grid must be 1-d"),
    ], ids=["gapped-2d", "gapped-unequal", "dfa-2d", "dfa-2d-grid",
            "expected-curve-2d-grid"])
    def test_wrong_shape_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

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

    # at m = 0 the rows of A do not sum to zero, so the diagonal term
    # added to f_hat's is nonzero even in fully present windows
    @pytest.mark.parametrize("offset", [0.0, 55.5, 1e3])
    def test_order_zero_matches_longdouble_reference(self, offset):
        rng = np.random.default_rng(30)
        scales = [5, 7, 12, 25, 50]
        for x in (rng.normal(size=300), np.cumsum(rng.normal(size=300))):
            mask = rng.random(300) > rng.uniform(0.1, 0.4)
            tilde = f_tilde(GappedSeries(x + offset, mask), 0, scales).f2
            for i, s in enumerate(scales):
                ref = _longdouble_reference(x + offset, mask, 0, s)[1]
                assert tilde[i] == pytest.approx(ref, rel=1e-12)


class TestEstimateHurst:
    def test_exact_power_law(self):
        scales = np.array([4, 8, 16, 32, 64])
        curve = FluctuationCurve(
            scales=scales, f2=(2.0 * scales.astype(float) ** 0.7) ** 2,
            n_windows=np.ones(5, int), estimator="standard")
        fit = estimate_hurst(curve)
        assert fit.hurst == pytest.approx(0.7, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(2.0, rel=1e-10)

    def test_skips_undefined_scales(self):
        scales = np.array([4, 8, 16, 32, 64])
        f2 = (1.0 * scales.astype(float) ** 0.5) ** 2
        f2[2] = -1.0
        curve = FluctuationCurve(
            scales=scales, f2=f2, n_windows=np.ones(5, int),
            estimator="f_hat")
        assert estimate_hurst(curve).n_points == 4

    def test_rejects_a_stack(self):
        x = np.random.default_rng(57).normal(size=(2, 200))
        curve = ensemble(x, None, 1, [8, 16, 32])["standard"]
        with pytest.raises(ValueError, match="one series"):
            estimate_hurst(curve)

    def test_repeated_scale_has_no_slope(self):
        x = np.random.default_rng(56).normal(size=200)
        with pytest.raises(TooFewPointsError):
            estimate_hurst(dfa(x, 1, [8, 8, 8]))

    def test_no_scales_has_no_fit(self):
        curve = FluctuationCurve(scales=np.array([], int), f2=np.array([]),
                                 n_windows=np.array([], int),
                                 estimator="standard")
        with pytest.raises(TooFewPointsError):
            estimate_hurst(curve, fit_range=(4, 16))

    def test_too_few_points(self):
        c = dfa(np.arange(100, dtype=float) % 7, 1, [4, 8, 16])
        with pytest.raises(TooFewPointsError):
            estimate_hurst(c, fit_range=(4, 5))

    def test_masked_fit_equals_per_row_ols(self):
        # rows with different selections in one call: per-row ranges,
        # NaN, negative and zero F^2, two scales, one repeated scale (the
        # rounded mean of three log 6 is not log 6), none
        scales = np.array([4, 6, 6, 6, 8, 12, 16, 24, 32, 48, 64, 96])
        rng = np.random.default_rng(58)
        f2 = (np.exp(rng.normal(0.0, 0.1, (7, scales.size)))
              * scales ** rng.uniform(0.2, 3.8, (7, 1)))
        f2[1, [0, 5]] = np.nan
        f2[1, [2, 9]] *= -1.0
        f2[4, 3:5] = 0.0
        f2[5, -1] = np.nan
        f2[6] = np.nan
        s_min = np.array([4, 6, 6, 12, 4, 16, 4])
        s_max = np.array([96, 64, 6, 16, 96, 96, 96])
        sel, ok, slope, intercept, resid_std = estimators._hurst_fits(
            scales, f2, s_min, s_max)
        ref_sel = (f2 > 0) & (scales >= s_min[:, None]) & (
            scales <= s_max[:, None])
        assert np.array_equal(sel, ref_sel)
        assert ok.tolist() == [True, True, False, False, True, True, False]
        for r in range(len(f2)):
            cols = ref_sel[r]
            assert ok[r] == (cols.sum() >= 3 and np.ptp(scales[cols]) > 0)
            if not ok[r]:
                assert np.isnan([slope[r], intercept[r], resid_std[r]]).all()
                continue
            x = np.log(scales[cols].astype(float))
            y = 0.5 * np.log(f2[r, cols])
            b, a = np.polyfit(x, y, 1)
            resid = y - (a + b * x)
            assert slope[r] == pytest.approx(b, abs=1e-12)
            assert intercept[r] == pytest.approx(a, abs=1e-12)
            assert resid_std[r] == pytest.approx(np.std(resid, ddof=2),
                                                 abs=1e-12)

    def test_fgn_recovers_hurst(self):
        x = sample(FGN(0.7, 1.0), 1368, 55)
        c = dfa(x, 2, default_scale_grid(1368, 2))
        fit = estimate_hurst(c)
        assert fit.hurst == pytest.approx(0.7, abs=0.15)


class TestFluctuationCurve:
    def test_diagnostics_read_off_f2(self):
        f2 = np.array([[1.0, np.nan, -1.0], [0.0, 2.0, np.nan]])
        kw = dict(scales=np.array([4, 8, 16]), n_windows=np.array([4, 2, 1]),
                  estimator="f_hat")
        stack = FluctuationCurve(f2=f2, **kw)
        assert stack.defined.tolist() == [[True, False, False],
                                          [True, True, False]]
        assert stack.reasons == ((None, NO_VALID_PAIRS, NEGATIVE_SQUARED),
                                 (None, None, NO_VALID_PAIRS))
        one = FluctuationCurve(f2=f2[1], **kw)
        assert one.defined.tolist() == [True, True, False]
        assert one.reasons == (None, None, NO_VALID_PAIRS)


class TestOverflowingF2:
    """Values too large to square give F^2 = inf (or NaN); the engine
    refuses them, so that NaN in f2 means only that no pair is present."""

    X = np.random.default_rng(70).normal(size=400) * 1e160
    MASK = block_gap_mask(400, 0.2, 6.0, seed=71)

    def test_dfa(self):
        with pytest.raises(NonFiniteValueError, match="scale 10.*rescale"):
            dfa(self.X, 1, [10, 20, 40, 80])

    @pytest.mark.parametrize("estimator", [f_hat, f_tilde])
    def test_gapped(self, estimator):
        with pytest.raises(NonFiniteValueError, match="scale 10.*rescale"):
            estimator(GappedSeries(self.X, self.MASK), 1, [10, 20, 40, 80])

    @pytest.mark.parametrize("gapped", [False, True])
    def test_ensemble(self, gapped):
        x = np.stack([self.X / 1e160, self.X])
        with pytest.raises(NonFiniteValueError, match="rescale"):
            ensemble(x, self.MASK if gapped else None, 1, [10, 20])

    def test_offset_overflows_f_tilde_only(self):
        # f_tilde's shift^2 (delta . B delta) overflows at an offset
        # f_hat's centred windows never see; the engine forms both sums,
        # and only the estimators asked for are checked
        x = np.random.default_rng(72).normal(size=400) * 1e145 + 1e155
        gs = GappedSeries(x, self.MASK)
        assert np.isfinite(f_hat(gs, 1, [10, 20, 40]).f2).all()
        with pytest.raises(NonFiniteValueError, match="rescale"):
            f_tilde(gs, 1, [10, 20, 40])
        with pytest.raises(NonFiniteValueError, match="rescale"):
            ensemble(x[None], self.MASK, 1, [10, 20, 40])


class TestScaleGrid:
    def test_bounds(self):
        g = default_scale_grid(1368, 2)
        assert g.min() == 4 and g.max() == 342
        assert g.size <= 30

    @pytest.mark.parametrize("entry", ["dfa", "f_hat", "f_tilde",
                                       "ensemble"])
    @pytest.mark.parametrize("grid", ["ints", "default"])
    def test_caller_scales_stay_writable(self, entry, grid):
        x = np.random.default_rng(80).normal(size=200)
        mask = np.ones(200, bool)
        mask[50:60] = False
        scales = (np.array([8, 16, 32]) if grid == "ints"
                  else default_scale_grid(200, 2))
        given = scales.copy()
        curve = {"dfa": lambda: dfa(x, 2, scales),
                 "f_hat": lambda: f_hat(GappedSeries(x, mask), 2, scales),
                 "f_tilde": lambda: f_tilde(GappedSeries(x, mask), 2, scales),
                 "ensemble": lambda: ensemble(x[None], mask, 2,
                                              scales)["f_hat"]}[entry]()
        assert scales.flags.writeable
        scales[0] = 5
        assert np.array_equal(curve.scales, given)
        assert not curve.scales.flags.writeable

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

    def test_caller_arrays_stay_writable(self):
        x = np.arange(5.0)
        mask = np.ones(5, bool)
        gs = GappedSeries(x, mask)
        x[0] = 7.0
        mask[1] = False
        assert gs.values[0] == 0.0
        assert gs.mask.all()
        assert not gs.values.flags.writeable and not gs.mask.flags.writeable


class TestEnsemble:
    N, M = 400, 2

    def _stack(self, reps=7):
        rng = np.random.default_rng(50)
        return np.cumsum(rng.normal(size=(reps, self.N)), axis=1) + 20.0

    def test_matches_per_replicate_calls(self):
        x = self._stack()
        mask = block_gap_mask(self.N, 0.3, 10.0, seed=51)
        scales = default_scale_grid(self.N, self.M)
        curves = ensemble(x, mask, self.M, scales)
        assert set(curves) == {"standard", "f_hat", "f_tilde"}
        for r, row in enumerate(x):
            gs = GappedSeries(row, mask)
            for key, ref in (("standard", dfa(row, self.M, scales)),
                             ("f_hat", f_hat(gs, self.M, scales)),
                             ("f_tilde", f_tilde(gs, self.M, scales))):
                got = curves[key]
                assert got.estimator == ref.estimator
                assert got.reasons[r] == ref.reasons
                assert np.array_equal(got.n_windows, ref.n_windows)
                np.testing.assert_allclose(got.f2[r], ref.f2, rtol=1e-12)

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        x = self._stack()
        mask = block_gap_mask(self.N, 0.3, 10.0, seed=52)
        scales = [5, 16, 40]
        whole = ensemble(x, mask, self.M, scales)
        # blocks of 3, 3 and 1 replicates
        monkeypatch.setattr(core, "_BLOCK_VALUES", 3 * self.N + 1)
        split = ensemble(x, mask, self.M, scales)
        for key in whole:
            for a, b in zip(whole[key].f2, split[key].f2):
                np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_basis_built_once_per_scale(self, monkeypatch):
        calls = []
        build = core._orthonormal_rowspace

        def counted(m, s):
            calls.append(s)
            return build(m, s)

        # both bindings, so that a build through core (as weight_matrix
        # does) is counted too
        monkeypatch.setattr(core, "_orthonormal_rowspace", counted)
        monkeypatch.setattr(estimators, "_orthonormal_rowspace", counted)
        scales = [5, 16, 40, 100]
        mask = block_gap_mask(self.N, 0.3, 10.0, seed=53)
        ensemble(self._stack(3), mask, self.M, scales)
        assert calls == scales

    def test_no_mask_gives_standard_only(self):
        x = self._stack(3)
        curves = ensemble(x, None, 0, [8, 20])
        assert list(curves) == ["standard"]
        assert np.array_equal(curves["standard"].f2[2], dfa(x[2], 0, [8, 20]).f2)

    def test_full_mask_collapses_bit_for_bit(self):
        x = self._stack(3)
        curves = ensemble(x, np.ones(self.N, bool), self.M, [8, 20, 50])
        for r in range(3):
            ref = curves["standard"].f2[r]
            assert np.array_equal(curves["f_hat"].f2[r], ref)
            assert np.array_equal(curves["f_tilde"].f2[r], ref)

    def test_bad_input(self):
        x = self._stack(2)
        mask = np.ones(self.N, bool)
        with pytest.raises(OrderZeroUnsupportedError):
            ensemble(x, mask, 0, [8])
        with pytest.raises(ValueError):
            ensemble(x[0], mask, self.M, [8])
        with pytest.raises(ValueError):
            ensemble(x, mask[1:], self.M, [8])
        with pytest.raises(ValueError):
            ensemble(x, ~mask, self.M, [8])
        x[1, 3] = np.nan
        with pytest.raises(NonFiniteValueError):
            ensemble(x, mask, self.M, [8])

    @pytest.mark.parametrize("gapped", [False, True])
    def test_empty_stack(self, gapped):
        mask = block_gap_mask(self.N, 0.3, 10.0, seed=54) if gapped else None
        with pytest.raises(ValueError, match="R >= 1"):
            ensemble(np.empty((0, self.N)), mask, self.M, [8, 20])
