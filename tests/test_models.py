"""Tests for the correlation-structure models."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from dfakit.core import weight_matrix
from dfakit.exceptions import ModelSpecError
from dfakit.expectation import (
    expected_curve,
    expected_f2_general,
)
from dfakit.models import (
    AR1,
    FBM,
    FGN,
    OU,
    AcvfTable,
    DerivedVariogram,
    VariogramTable,
    WhiteNoise,
    check_hurst,
    fbm_covariance,
    fgn_acvf_asymptotic,
    model_from_spec,
)


class TestFgnAcvf:
    def test_white_noise_case(self):
        assert FGN(0.5, 1.0).acvf(1) == pytest.approx(0.0, abs=1e-15)
        assert FGN(0.5, 2.0).acvf(0) == pytest.approx(2.0)

    def test_h07_lag1(self):
        assert FGN(0.7, 1.0).acvf(1) == pytest.approx((2**1.4 - 2) / 2,
                                                      rel=1e-12)

    def test_antipersistent_partial_sum(self):
        gam = FGN(0.3, 1.0).acvf(np.arange(1, 10**6))
        assert np.all(gam < 0)
        # partial sums approach -gamma(0)/2
        assert gam.sum() == pytest.approx(-0.5, abs=2e-3)

    def test_persistent_divergence(self):
        gam = FGN(0.9, 1.0).acvf(np.arange(1, 10**6))
        assert gam.sum() > 1e3

    def test_second_difference_identity(self):
        h = 0.65
        f = lambda t: 0.5 * np.abs(t) ** (2 * h)
        for tau in (0, 1, 5, 100):
            expect = f(tau + 1) - 2 * f(tau) + f(tau - 1)
            assert FGN(h, 1.0).acvf(tau) == pytest.approx(expect, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            FGN(1.2, 1.0).acvf(1)

    @staticmethod
    def _reference(h, tau):
        """gamma(tau) at 50 digits, t^{2H} = exp(2H ln t); the second
        difference loses about 12 of them at lag 2^20."""
        with localcontext() as ctx:
            ctx.prec = 50
            two_h = 2 * Decimal(h)

            def power(t):
                return (two_h * Decimal(t).ln()).exp() if t else Decimal(0)

            return float((power(tau + 1) - 2 * power(tau)
                          + power(abs(tau - 1))) / 2)

    @pytest.mark.parametrize("h", [0.01, 0.2, 0.45, 0.49, 0.51, 0.55, 0.7,
                                   0.9, 0.99, 0.999])
    def test_matches_extended_precision(self, h):
        lags = np.union1d(np.arange(80), np.unique(np.round(
            np.geomspace(1, 2**20, 40)).astype(int)))
        got = FGN(h).acvf(lags)
        ref = np.array([self._reference(h, int(t)) for t in lags])
        err = np.abs(got - ref) / np.abs(ref)
        far = lags >= 64
        assert err[far].max() <= 1e-14
        # below lag 64 the three-power difference, no worse than it was
        t = lags[~far].astype(float)
        direct = 0.5 * (np.abs(t + 1) ** (2 * h) - 2 * t ** (2 * h)
                        + np.abs(t - 1) ** (2 * h))
        assert np.all(err[~far] <= np.abs(direct - ref[~far])
                      / np.abs(ref[~far]))

    @pytest.mark.parametrize("h", [0.01, 0.2, 0.45, 0.49, 0.51, 0.55, 0.7,
                                   0.9, 0.99, 0.999])
    def test_near_lags_match_extended_precision(self, h):
        # the three-power difference was off by up to 5.3e-11 here
        lags = np.arange(1, 64)
        ref = np.array([self._reference(h, int(t)) for t in lags])
        err = np.abs(FGN(h).acvf(lags) - ref) / np.abs(ref)
        assert err.max() <= 1e-14

    def test_lag1_does_without_long_double(self, monkeypatch):
        # where long double is plain double, expm1 in it was 1 ulp off at
        # about a third of these H, 0.7 among them
        monkeypatch.setattr(np, "longdouble", np.float64)
        hs = np.concatenate([[0.7], np.linspace(0.0005, 0.9995, 300),
                             0.5 + np.array([-1e-9, 1e-12, 3e-15])])
        got = [float(FGN(h).acvf(1)) for h in hs]
        assert got == [self._reference(h, 1) for h in hs]

    def test_lag_shapes(self):
        fgn = FGN(0.7, 2.0)
        lags = np.array([[0, -3, 70], [-100, 5, 1]])
        got = fgn.acvf(lags)
        assert got.shape == lags.shape
        assert np.array_equal(got, fgn.acvf(np.abs(lags).ravel()).reshape(
            lags.shape))
        assert fgn.acvf(-70) == fgn.acvf(70) == got[0, 2]
        assert np.ndim(fgn.acvf(3)) == 0
        assert float(fgn.acvf(0)) == 2.0

    def test_rejects_fractional_lag_below_series(self):
        # below lag 64 the acvf is read off a table of gamma(0..63), and
        # the series does not cover lags in (1, 2)
        with pytest.raises(ValueError, match="integers"):
            FGN(0.7).acvf(2.5)


class TestFgnAsymptotic:
    def test_ratio_converges(self):
        exact = FGN(0.7, 1.0).acvf(10**4)
        asym = fgn_acvf_asymptotic(0.7, 1.0, 10**4)
        assert asym == pytest.approx(exact, rel=1e-3)

    def test_negative_for_antipersistent(self):
        vals = fgn_acvf_asymptotic(0.3, 1.0, np.arange(1, 100))
        assert np.all(vals < 0)

    def test_finite_lag_discrepancy(self):
        # at lag 1 the power law is a poor stand-in for the exact acvf
        exact = FGN(0.9, 1.0).acvf(1)
        asym = fgn_acvf_asymptotic(0.9, 1.0, 1)
        assert abs(asym / exact - 1) > 0.01

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            fgn_acvf_asymptotic(0.5, 1.0, 1)


class TestFbm:
    def test_unit_time_variance(self):
        assert fbm_covariance(0.3, 1.0, 1, 1) == pytest.approx(1.0)

    def test_brownian_is_min(self):
        for t, s in [(3, 7), (10, 2), (5, 5)]:
            assert fbm_covariance(0.5, 1.5, t, s) == pytest.approx(
                1.5 * min(t, s), rel=1e-12)

    def test_example_value(self):
        assert fbm_covariance(0.6, 1.0, 2, 1) == pytest.approx(2**0.2,
                                                               rel=1e-12)

    def test_symmetry(self):
        assert fbm_covariance(0.4, 2.0, 9, 4) == fbm_covariance(0.4, 2.0, 4, 9)

    def test_variogram_examples(self):
        assert FBM(1.5, 1.0).variogram(0) == 0.0
        assert FBM(1.5, 1.0).variogram(7) == pytest.approx(7.0)
        assert FBM(1.1, 1.0).variogram(16) == pytest.approx(16**0.2, rel=1e-12)

    def test_covariance_variogram_consistency(self):
        h, var = 0.35, 1.7
        for t, s in [(3, 8), (12, 5), (20, 20)]:
            cov = fbm_covariance(h, var, t, s)
            vt = fbm_covariance(h, var, t, t)
            vs = fbm_covariance(h, var, s, s)
            sv = var * abs(t - s) ** (2 * h)
            assert 2 * cov == pytest.approx(vt + vs - sv, rel=1e-12)


class TestOuAr1:
    def test_lag_zero(self):
        assert OU(20.0, 3.0).acvf(0) == pytest.approx(3.0)

    def test_correlation_time(self):
        assert OU(20.0, 1.0).acvf(20) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_ar1_equivalence_at_integer_lags(self):
        tau = 20.0
        phi = np.exp(-1.0 / tau)
        lags = np.arange(50)
        assert np.allclose(OU(tau, 1.0).acvf(lags), AR1(phi, 1.0).acvf(lags),
                           rtol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 1e-300, 0.6, -0.6, 0.999, -0.95])
    def test_ar1_skips_only_zero_powers(self, phi):
        # pow runs only below the lag where |phi|^t rounds to 0
        lags = np.arange(5000)
        assert np.array_equal(AR1(phi, 2.0).acvf(lags),
                              2.0 * phi ** lags.astype(float))
        assert AR1(phi, 2.0).acvf(3) == 2.0 * phi ** 3.0

    def test_domains(self):
        with pytest.raises(ValueError):
            OU(-1.0, 1.0).acvf(0)
        with pytest.raises(ValueError):
            AR1(1.5, 1.0).acvf(0)


class TestStationaryToVariogram:
    def test_lag_zero(self):
        assert DerivedVariogram(WhiteNoise(2.0)).variogram(0) == 0.0

    def test_white_noise(self):
        assert (DerivedVariogram(WhiteNoise(2.0)).variogram(5)
                == pytest.approx(4.0))

    @pytest.mark.parametrize("s", [8, 64, 256, 4096])
    def test_cross_engine_equality(self, s):
        # the acvf sum against the variogram sum of DerivedVariogram, on
        # every stationary kind
        models = {"fgn 0.7": FGN(hurst=0.7), "white": WhiteNoise(),
                  "fgn 0.1": FGN(0.1), "fgn 0.95": FGN(0.95),
                  "ou 5": OU(5.0), "ou 300": OU(300.0),
                  "ar1 -0.6": AR1(-0.6), "ar1 0.3": AR1(0.3),
                  "ar1 0.999": AR1(0.999),
                  "table": AcvfTable(tuple(0.9 ** np.arange(4096)))}
        for name, model in models.items():
            for m in range(1, 5):
                direct = expected_curve(model, m, [s])[0]
                via_var = expected_curve(DerivedVariogram(model), m,
                                         [s])[0]
                assert via_var == pytest.approx(direct, rel=1e-9), (name, m)


class TestModelObjects:
    def test_table_validation(self):
        with pytest.raises(ValueError):
            AcvfTable(values=(1.0, 2.0))
        with pytest.raises(ValueError):
            VariogramTable(values=(1.0, 2.0))

    def test_negative_variogram_table_rejected(self):
        # S(t) = E(X_t - X_0)^2 >= 0
        with pytest.raises(ValueError, match="must not be negative"):
            VariogramTable(values=(0.0, 1.0, -1e-300))
        VariogramTable(values=(0.0, 0.0, 1.0))

    def test_table_insufficient_lags(self):
        from dfakit.exceptions import InsufficientLagsError
        tab = AcvfTable(values=(1.0, 0.5, 0.2))
        with pytest.raises(InsufficientLagsError):
            tab.acvf(np.arange(10))

    def test_table_acvf_is_even(self):
        # the general engine reads gamma(t1 - t2), negative lags included
        tab = AcvfTable(values=tuple(0.5 ** np.arange(16)))
        m, s = 2, 16
        idx = np.arange(1, s + 1)
        kernel = tab.acvf(idx[:, None] - idx[None, :])
        size = np.abs(weight_matrix(m, s).entries * kernel).sum() / s
        got = expected_f2_general(lambda t1, t2: tab.acvf(t1 - t2), m, s)
        ref = expected_curve(tab, m, [s])[0]
        assert abs(got - ref) <= 1e-12 * size

    def test_table_variogram_rejects_negative_lag(self):
        with pytest.raises(ValueError, match="lag must be >= 0"):
            VariogramTable(values=(0.0, 1.0, 2.0)).variogram(-1)

    @pytest.mark.parametrize("call,match", [
        (lambda: fgn_acvf_asymptotic(0.7, 1.0, [0, 1]), "lag >= 1"),
        (lambda: fbm_covariance(0.3, 1.0, -1, 1), "times must be >= 0"),
        (lambda: fbm_covariance(0.3, 1.0, 1, [2, -1]), "times must be >= 0"),
        (lambda: FBM(1.3).variogram([1, -2]), "lag must be >= 0"),
    ], ids=["fgn-asymptotic-lag-0", "fbm-covariance-t", "fbm-covariance-s",
            "fbm-variogram"])
    def test_argument_outside_domain_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("h, lo, hi", [
        (0.0, 0.0, 2.0), (1.0, 0.0, 2.0), (2.0, 0.0, 2.0),
        (1.3, 0.0, 1.0), (0.7, 1.0, 2.0)])
    def test_check_hurst_rejects(self, h, lo, hi):
        with pytest.raises(ValueError, match="Hurst exponent"):
            check_hurst(h, lo, hi)

    def test_check_hurst_accepts(self):
        for h, lo, hi in [(0.7, 0.0, 2.0), (1.3, 0.0, 2.0),
                          (0.01, 0.0, 1.0), (1.99, 1.0, 2.0)]:
            check_hurst(h, lo, hi)

    def test_from_spec(self):
        assert model_from_spec({"kind": "fgn", "hurst": 0.7}) == FGN(0.7)
        assert model_from_spec({"kind": "white"}) == WhiteNoise()
        assert model_from_spec({"kind": "ou", "tau_c": 20}) == OU(20)
        assert model_from_spec({"kind": "ar1", "phi": 0.5}) == AR1(0.5)
        assert model_from_spec({"kind": "fbm", "hurst": 1.1}) == FBM(1.1)
        m = model_from_spec({"kind": "table", "acvf": [1.0, 0.5]})
        assert m == AcvfTable(values=(1.0, 0.5))
        m = model_from_spec({"kind": "table", "variogram": [0.0, 2.0]})
        assert m == VariogramTable(values=(0.0, 2.0))
        with pytest.raises(ValueError):
            model_from_spec({"kind": "levy"})

    @pytest.mark.parametrize("spec", [
        [1, 2], "fgn", None, {}, {"kind": "levy"}, {"kind": ["fgn"]},
        {"kind": "fgn"}, {"kind": "fgn", "hurst": 0.7, "foo": 1},
        {"kind": "fgn", "hurst": "0.7"}, {"kind": "ar1", "phi": None},
        {"kind": "table"}, {"kind": "table", "acvf": 1.0},
        {"kind": "table", "acvf": [1.0], "variogram": [0.0]},
        {"kind": "ar1", "phi": False}, {"kind": "ou", "tau_c": True},
        {"kind": "table", "acvf": [1.0, False]}])
    def test_bad_spec(self, spec):
        with pytest.raises(ModelSpecError):
            model_from_spec(spec)

    def test_model_checks_pass_through(self):
        with pytest.raises(ValueError, match="variance must be > 0") as exc:
            model_from_spec({"kind": "fbm", "hurst": 1.3, "variance": 0})
        assert not isinstance(exc.value, ModelSpecError)


class TestNonFiniteParameters:
    """inf and NaN parameters would turn into samples and expectations
    that look valid; every constructor rejects them."""

    BUILDERS = {
        "white-gamma0": lambda v: WhiteNoise(gamma0=v),
        "fgn-hurst": lambda v: FGN(v),
        "fgn-variance": lambda v: FGN(0.7, variance=v),
        "fbm-hurst": lambda v: FBM(v),
        "fbm-variance": lambda v: FBM(1.3, variance=v),
        "ou-tau_c": lambda v: OU(v),
        "ou-gamma0": lambda v: OU(5.0, gamma0=v),
        "ar1-phi": lambda v: AR1(v),
        "ar1-gamma0": lambda v: AR1(0.5, gamma0=v),
        "acvf-table": lambda v: AcvfTable(values=(1.0, v)),
        "variogram-table": lambda v: VariogramTable(values=(0.0, v)),
    }

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    def test_message_names_the_parameter(self):
        with pytest.raises(ValueError, match="variance must be finite"):
            model_from_spec({"kind": "fgn", "hurst": 0.7,
                             "variance": float("inf")})
