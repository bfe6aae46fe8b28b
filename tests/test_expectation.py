"""Tests for the expectation engines, scaling constants, and bias."""

import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from dfakit import expectation, weights
from dfakit.estimators import default_scale_grid
from dfakit.exceptions import (
    DFAError,
    NonFiniteValueError,
    NonpositiveCorrectionError,
)
from dfakit.expectation import (
    asymptotic_lambda,
    correction_function,
    expected_curve,
    expected_f2_general,
    modified_f2,
    scaling_model,
)
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
from dfakit.weights import (
    asymptotic_coefficients,
    closed_form_g,
    weight_function,
)


class TestStationaryEngine:
    def test_white_noise_closed_form(self):
        # (s^2 - 4) / (15 s) for order 1
        assert expected_curve(WhiteNoise(), 1, [10])[0] == pytest.approx(
            0.64, rel=1e-10)
        for s in (5, 17, 200):
            ef2 = expected_curve(WhiteNoise(), 1, [s])[0]
            assert ef2 == pytest.approx((s**2 - 4) / (15 * s), rel=1e-9)

    def test_perfect_fit_scale(self):
        assert expected_curve(FGN(0.7), 2, [3])[0] == 0.0
        kern = lambda t1, t2: FGN(0.7).acvf(np.abs(t1 - t2))
        assert expected_f2_general(kern, 2, 3) == 0.0

    def test_closed_form_engine_matches(self):
        # reference: the explicit weight matrix, not weight_function,
        # which returns the closed form itself at every order
        kern = lambda t1, t2: FGN(0.9).acvf(np.abs(t1 - t2))
        for s in (16, 128, 1024):
            a = expected_f2_general(kern, 1, s)
            b = expected_curve(FGN(0.9), 1, [s])[0]
            assert b == pytest.approx(a, rel=1e-9)

    def test_positive_for_nondegenerate(self):
        for m in (1, 2, 3):
            for s in (m + 2, 37, 256):
                assert expected_curve(FGN(0.3), m, [s])[0] > 0


class TestFlatAcvf:
    """Where gamma(s - 1) > gamma(0) / 2 the acvf terms cancel, and the
    stationary engine takes the variogram sum of S = 2 (gamma(0) - gamma)
    instead, whose differences are exact there."""

    K = np.arange(300)

    @staticmethod
    def exact_g(m, s):
        return [closed_form_g(m, j, s, exact=True) for j in range(s)]

    def test_ar1_near_unit_root_against_an_exact_sum(self):
        phi = Fraction(0.999)
        for m in (1, 2, 3):
            for s in (8, 64):
                g = self.exact_g(m, s)
                want = (g[0] + 2 * sum(gj * phi ** j
                                       for j, gj in enumerate(g) if j)) / s
                got = Fraction(expected_curve(AR1(0.999), m, [s])[0])
                assert abs(got / want - 1) < 5e-14, (m, s)

    def test_slow_ou_against_a_50_digit_sum(self):
        with localcontext() as ctx:
            ctx.prec = 50
            for m in (1, 2, 3):
                for s in (8, 64):
                    g = [Decimal(v.numerator) / v.denominator
                         for v in self.exact_g(m, s)]
                    want = (g[0] + 2 * sum(
                        gj * (Decimal(-j) / 10000).exp()
                        for j, gj in enumerate(g) if j)) / s
                    got = Decimal(expected_curve(OU(1e4), m, [s])[0])
                    assert abs(got / want - 1) < Decimal(2e-13), (m, s)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_constant_acvf_gives_exact_zeros(self, m):
        scales = np.geomspace(5, 4096, 60).round().astype(int)
        ef2 = expected_curve(AcvfTable((1.0,) * 4100), m, scales)
        assert not np.signbit(ef2).any() and not ef2.any()

    @pytest.mark.parametrize("model", [
        FGN(0.9), FGN(0.999), AR1(0.99), AR1(-0.5), OU(50.0),
        AcvfTable(tuple(0.9 ** K * np.cos(0.3 * K)))
    ], ids=["fgn-0.9", "fgn-0.999", "ar1-0.99", "ar1--0.5", "ou-50",
            "oscillating-table"])
    def test_each_scale_takes_one_sum_to_the_bit(self, model):
        scales = [5, 6, 7, 8, 20, 64, 100, 300]
        gam = model.acvf(np.arange(300))
        variogram = VariogramTable(tuple(2.0 * (gam[0] - gam)))
        for m in (1, 2, 3):
            ef2 = expected_curve(model, m, scales)
            via_variogram = expected_curve(variogram, m, scales)
            for s, got, alt in zip(scales, ef2, via_variogram):
                if gam[s - 1] > gam[0] / 2:
                    assert got.tobytes() == alt.tobytes(), (m, s)
                else:
                    g = weight_function(m, s)
                    acvf_sum = float(g[0] * gam[0]
                                     + 2.0 * (g[1:] @ gam[1:s])) / s
                    assert got.tobytes() == np.float64(acvf_sum).tobytes(), (
                        m, s)


class TestIncrementEngine:
    def test_random_walk_large_s(self):
        # lambda_{1,1.5} = 1/420
        s = 4096
        assert expected_curve(FBM(1.5), 1, [s])[0] == pytest.approx(
            s**3 / 420, rel=0.01)

    def test_agrees_with_general_kernel(self):
        model = FBM(1.1)
        kern = lambda t1, t2: fbm_covariance(0.1, 1.0, t1, t2)
        for s in (8, 64):
            a = expected_curve(model, 1, [s])[0]
            b = expected_f2_general(kern, 1, s, t=0)
            assert b == pytest.approx(a, rel=1e-9)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            expected_curve(FBM(1.5), 0, [10])[0]


class TestGeneralEngine:
    def test_stationary_reduction(self):
        model = FGN(0.7)
        kern = lambda t1, t2: np.asarray(
            model.acvf(np.abs(t1 - t2).astype(int)))
        a = expected_curve(model, 2, [32])[0]
        b = expected_f2_general(kern, 2, 32, t=5)
        assert b == pytest.approx(a, rel=1e-9)

    @pytest.mark.parametrize("h", [0.1, 0.5, 0.8])
    def test_window_independence(self, h):
        kern = lambda t1, t2: fbm_covariance(h, 1.0, t1, t2)
        vals = [expected_f2_general(kern, 2, 64, t=t) for t in (0, 100, 1000)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-9)


class TestScalingConstant:
    def test_white_noise(self):
        assert asymptotic_lambda(1, Fraction(1, 2)) == pytest.approx(1 / 15)
        assert asymptotic_lambda(1, 0.5) == pytest.approx(1 / 15)

    def test_random_walk_exact(self):
        lam = asymptotic_lambda(1, Fraction(3, 2))
        assert lam == pytest.approx(1 / 420, rel=1e-15)

    def test_h07(self):
        assert asymptotic_lambda(1, 0.7) == pytest.approx(0.02723, rel=1e-3)

    def test_matches_finite_size_limit(self):
        lam = asymptotic_lambda(1, 0.7)
        s = 4096
        ef2 = expected_curve(scaling_model(0.7), 1, [s])[0]
        assert ef2 / (lam * s**1.4) == pytest.approx(1.0, abs=0.02)

    def test_positive_across_grid(self):
        for m in (1, 2, 3, 4, 5, 6):
            for h in (0.1, 0.49, 0.51, 0.95, 1.05, 1.5, 1.95):
                assert asymptotic_lambda(m, h) > 0

    def test_float_hurst_is_exact(self):
        # the d_q alternate in sign and cancel, so a sum of rounded
        # float terms is off in the last digits (up to 5e-7 at m = 8);
        # lambda at a float H must be the rounded exact value at that H
        def exact(m, h):
            h, d = Fraction(h), asymptotic_coefficients(m)
            if h == Fraction(1, 2):
                return float(d[0])
            total = sum(dq / (q + 2 * h - 1) for q, dq in enumerate(d))
            return float(2 * h * (2 * h - 1) * total if h < 1 else -total)

        grid = [*np.linspace(0.001, 0.999, 25),
                *np.linspace(1.001, 1.999, 25), 0.5]
        for m in range(1, 9):
            for h in map(float, grid):
                assert asymptotic_lambda(m, h) == exact(m, h), (m, h)

    def test_domain(self):
        for bad in (0.0, 1.0, 2.0, -0.3, 2.5):
            with pytest.raises(ValueError):
                asymptotic_lambda(1, bad)


class TestCorrection:
    def test_white_noise_small_scale(self):
        assert correction_function(1, 0.5, 10) == pytest.approx(0.96,
                                                                rel=1e-9)

    def test_tends_to_one(self):
        for m, h in [(1, 0.9), (2, 0.7), (1, 1.1), (3, 1.5)]:
            assert correction_function(m, h, 4096) == pytest.approx(1.0,
                                                                    abs=0.05)

    def test_opposite_bias_directions(self):
        # persistent noise is biased low, motion is biased high
        for s in range(3, 51):
            assert correction_function(1, 0.9, s) < 1
            assert correction_function(1, 1.1, s) > 1

    def test_lambda_computed_once_per_order_and_hurst(self):
        asymptotic_lambda.cache_clear()
        for s in np.unique(np.geomspace(4, 4096, 30).astype(int)):
            correction_function(2, 0.7, int(s))
        assert asymptotic_lambda.cache_info().misses == 1

    def test_lambda_cache_keeps_exact_and_float_apart(self):
        asymptotic_lambda.cache_clear()
        exact = asymptotic_lambda(1, Fraction(1, 2))
        assert asymptotic_lambda(1, 0.5) is not exact
        assert asymptotic_lambda.cache_info().misses == 2

    def test_nonpositive_lambda_is_a_dfa_error(self, monkeypatch):
        # no real order gives lambda <= 0; fake coefficients with
        # d_0 = -1, which is lambda itself at H = 1/2
        monkeypatch.setattr(expectation, "asymptotic_coefficients",
                            lambda m: (Fraction(-1),))
        asymptotic_lambda.cache_clear()
        asymptotic_coefficients.cache_clear()
        try:
            with pytest.raises(NonpositiveCorrectionError):
                asymptotic_lambda(1, 0.5)
        finally:
            asymptotic_lambda.cache_clear()
            asymptotic_coefficients.cache_clear()
        assert issubclass(NonpositiveCorrectionError, DFAError)


class TestModifiedF2:
    def test_identity(self):
        assert modified_f2(3.7, 1.0) == 3.7

    def test_own_correction_recovers_power_law(self):
        m, h, s = 1, 0.9, 64
        ef2 = expected_curve(scaling_model(h), m, [s])[0]
        k2 = correction_function(m, h, s)
        lam = asymptotic_lambda(m, h)
        assert modified_f2(ef2, k2) == pytest.approx(lam * s**(2 * h),
                                                     rel=1e-9)

    def test_wrong_correction_increases_motion_bias(self):
        # white-noise correction applied to a motion's curve backfires
        m, h = 1, 1.1
        lam = asymptotic_lambda(m, h)
        worst_raw, worst_mod = 0.0, 0.0
        for s in range(16, 257, 16):
            ef2 = expected_curve(scaling_model(h), m, [s])[0]
            target = lam * s**(2 * h)
            k2_wn = correction_function(m, 0.5, s)
            worst_raw = max(worst_raw, abs(ef2 / target - 1))
            worst_mod = max(worst_mod, abs(modified_f2(ef2, k2_wn) / target - 1))
        assert worst_mod > worst_raw

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveCorrectionError):
            modified_f2(1.0, 0.0)

    @pytest.mark.parametrize("k2", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, k2):
        # NaN would pass through as a NaN, and inf as a plausible 0
        with pytest.raises(NonpositiveCorrectionError, match="finite"):
            modified_f2(1.0, k2)


class TestExpectedCurve:
    @pytest.mark.parametrize("model,name,s_max", [
        (FGN(0.7), "acvf", 4096), (FBM(1.3), "variogram", 4095)])
    def test_lag_function_evaluated_once(self, monkeypatch, model, name,
                                         s_max):
        calls = []
        lag_function = getattr(type(model), name)

        def counted(self, lags):
            calls.append(np.asarray(lags).size)
            return lag_function(self, lags)

        monkeypatch.setattr(type(model), name, counted)
        ef2 = expected_curve(model, 2, [4, 16, 100, 4096])
        assert calls == [s_max]
        assert ef2[2] == expected_curve(model, 2, [100])[0]

    def test_empty_grid(self):
        # no model evaluation, and no order check for the variogram engine
        assert expected_curve(FBM(1.3), 0, []).size == 0

    @pytest.mark.parametrize("m, match", [
        (1.5, "order 1.5 is not an integer"), (-1, "order must be >= 0")])
    def test_empty_grid_still_checks_the_order(self, m, match):
        with pytest.raises(ValueError, match=match):
            expected_curve(FGN(0.7), m, [])

    @pytest.mark.parametrize("m", [2.0, np.int64(2)])
    def test_integral_order_gives_the_int_order_curve(self, m):
        # the order reaches G's exact coefficients as an int: s^(2m) and
        # the products after it overflow int64 at s = 50000
        scales = [8, 1000, 50000]
        want = expected_curve(FGN(0.7), 2, scales)
        assert expected_curve(FGN(0.7), m, scales).tobytes() == want.tobytes()

    def test_order_above_float_cap_raises(self):
        with pytest.raises(DFAError, match="order 9"):
            expected_curve(FGN(0.7), 9, [20])
        with pytest.raises(DFAError, match="order 9"):
            correction_function(9, 0.7, 20)

    def test_overflow_raises_before_the_curve_is_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning escapes
            with pytest.raises(NonFiniteValueError, match="scale 8"):
                expected_curve(FGN(0.7, variance=1e308), 1, [4, 8])

    def test_subnormal_raises_before_the_curve_is_kept(self):
        # E F^2 of about 1e-321 has lost all but a few digits
        with pytest.raises(NonFiniteValueError, match="scale 4.*rescale"):
            expected_curve(FGN(0.7, variance=1e-320), 1, [2, 4, 8])
        # s = m + 1 leaves no residual: an exact 0 is not subnormal
        assert expected_curve(FGN(0.7, variance=1e-320), 1, [2])[0] == 0.0

    def test_scales_left_writable(self):
        scales = np.array([8, 16])
        expected_curve(FGN(0.7), 2, scales)
        scales[0] = 9  # raises if the curve froze the caller's array

    def test_dispatch(self):
        scales = [8, 16, 32]
        c1 = expected_curve(FGN(0.7), 2, scales)
        c2 = expected_curve(FBM(1.1), 2, scales)
        assert c1.shape == c2.shape == (3,)
        assert not c1.flags.writeable and not c2.flags.writeable
        assert np.all(c1 > 0) and np.all(c2 > 0)
        assert c1[0] == pytest.approx(
            expected_curve(FGN(0.7), 2, [8])[0], rel=1e-12)
        assert c2[0] == pytest.approx(
            expected_curve(FBM(1.1), 2, [8])[0], rel=1e-12)


class TestMemo:
    def test_mutated_foreign_model_is_evaluated_afresh(self):
        class Scaled:  # a mutable model of the caller's own
            def __init__(self, c):
                self.c = c

            def acvf(self, lags):
                return self.c * FGN(0.7).acvf(lags)

        model = Scaled(1.0)
        before = expected_curve(model, 2, [16, 64])
        model.c = 2.0
        after = expected_curve(model, 2, [16, 64])
        np.testing.assert_allclose(after, 2.0 * before, rtol=1e-14)


class TestRetention:
    def test_g_once_per_fitted_scale_and_not_on_a_hit(self, monkeypatch):
        # G comes from the grid evaluator, one yield per fitted scale
        calls = []

        def counted(m, grid):
            for g in weights._grid_weight_functions(m, grid):
                calls.append((m, g.size))
                yield g

        monkeypatch.setattr(expectation, "_grid_weight_functions", counted)
        scales = [3, 8, 1000, 8]  # s = m + 1 = 3 is not fitted
        expected_curve(FGN(0.7), 2, scales)
        assert calls == [(2, 8), (2, 1000), (2, 8)]

    def test_under_1_mib_kept_after_a_curve(self):
        scales = default_scale_grid(2 ** 18, 3)
        weight_function(3, 5)  # derives the closed form of m = 3
        tracemalloc.start()
        try:
            expected_curve(FGN(0.7), 3, scales)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2 ** 20
