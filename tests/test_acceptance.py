"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get the per-criterion
verdict lines. The Monte Carlo fixture runs its 2 x 500 replicates
through one batched ``ensemble`` call per class.
"""

from fractions import Fraction

import numpy as np
import pytest

from dfakit.core import (
    residual_variance_direct,
    residual_variance_increment,
    residual_variance_quadratic,
    weight_matrix,
)
from dfakit.estimators import (
    GappedSeries,
    default_scale_grid,
    dfa,
    ensemble,
    f_hat,
    f_tilde,
    gap_weights,
)
from dfakit.expectation import (
    asymptotic_lambda,
    correction_function,
    expected_curve,
    expected_f2_general,
    modified_f2,
    scaling_model,
)
from dfakit.generators import (
    add_polynomial_trend,
    block_gap_mask,
    sample_stack,
)
from dfakit.models import FBM, FGN, OU, fbm_covariance, fgn_acvf_asymptotic
from dfakit.weights import (
    asymptotic_coefficients,
    closed_form_g,
    weight_function,
)

# exact reference rows for the asymptotic weight coefficients, orders 1..6
EXACT_D_ROWS = {
    1: ["1/15", "-1/2", "1", "-2/3", "0", "1/10"],
    2: ["3/70", "-1/2", "3/2", "-3/2", "0", "3/5", "0", "-1/7"],
    3: ["2/63", "-1/2", "2", "-8/3", "0", "2", "0", "-8/7", "0", "5/18"],
    4: ["5/198", "-1/2", "5/2", "-25/6", "0", "5", "0", "-5", "0", "25/9",
        "0", "-7/11"],
    5: ["3/143", "-1/2", "3", "-6", "0", "21/2", "0", "-16", "0", "15", "0",
        "-84/11", "0", "21/13"],
    6: ["7/390", "-1/2", "7/2", "-49/6", "0", "98/5", "0", "-42", "0",
        "175/3", "0", "-49", "0", "294/13", "0", "-22/5"],
}

MC_SEED = 2026
MC_N = 1368
MC_ORDER = 2
MC_REPS = 500


def report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def mc_ensembles():
    """500-replicate ensembles, gap-free and 20% block-gapped, both classes."""
    scales = default_scale_grid(MC_N, MC_ORDER)
    mask = block_gap_mask(MC_N, 0.2, 12.0, seed=99)
    out = {"scales": scales, "mask": mask}
    for tag, model in (("noise", FGN(0.7, 1.0)), ("motion", FBM(1.1, 1.0))):
        samples = sample_stack(model, MC_N, MC_SEED, range(MC_REPS))
        curves = ensemble(samples, mask, MC_ORDER, scales)
        # the batched engine gives what the per-replicate calls give
        for r in (0, 1, MC_REPS - 1):
            gs = GappedSeries(samples[r], mask)
            for key, ref in (("standard", dfa(samples[r], MC_ORDER, scales)),
                             ("f_hat", f_hat(gs, MC_ORDER, scales)),
                             ("f_tilde", f_tilde(gs, MC_ORDER, scales))):
                np.testing.assert_allclose(curves[key].f2[r], ref.f2,
                                           rtol=1e-12)
                assert curves[key].reasons[r] == ref.reasons
        out[tag] = {short: curves[key].f2
                    for short, key in (("full", "standard"), ("hat", "f_hat"),
                                       ("tilde", "f_tilde"))}
    return out


def combined_z(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|mean difference| over the combined standard error, per scale."""
    reps = a.shape[0]
    se = np.sqrt(a.var(axis=0, ddof=1) / reps + b.var(axis=0, ddof=1) / reps)
    return np.abs(a.mean(axis=0) - b.mean(axis=0)) / se


def test_criterion_01_exact_coefficient_rows():
    for m, row in EXACT_D_ROWS.items():
        got = asymptotic_coefficients(m)
        want = tuple(Fraction(x) for x in row)
        assert got == want, f"order {m} coefficient row mismatch"
    report(1, "asymptotic d_q rows exactly rational for orders 1..6")


def matrix_diagonal_sums(m: int, s: int) -> np.ndarray:
    """G(j, s) = sum_k A_{k, k+j} of the explicit weight matrix."""
    idx = np.arange(s)
    lag = (idx[None, :] - idx[:, None]).ravel()
    upper = lag >= 0
    a = weight_matrix(m, s).entries.ravel()
    return np.bincount(lag[upper], weights=a[upper], minlength=s)


def test_criterion_02_closed_form_weight_agreement():
    assert closed_form_g(1, 0, 10, exact=True) == Fraction(32, 5)
    for m in (1, 2):
        for s in range(m + 2, 513):
            ref = matrix_diagonal_sums(m, s)
            cf = weight_function(m, s)
            scale = np.abs(ref).max()
            assert np.abs(cf - ref).max() < 1e-9 * scale, (m, s)
    report(2, "closed-form G(j,s) matches the matrix version to 1e-9 "
              "for orders 1..2, scales up to 512")


def test_criterion_03_three_forms_equivalent():
    assert residual_variance_direct([0.0, 1.0, 1.0], 1) == pytest.approx(
        1 / 18, rel=1e-15)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        s = int(rng.integers(m + 2, 201))
        x = rng.normal(size=s)
        a = weight_matrix(m, s)
        d = residual_variance_direct(np.cumsum(x), m)
        q = residual_variance_quadratic(x, a)
        i = residual_variance_increment(x, a)
        assert q == pytest.approx(d, rel=1e-9)
        assert i == pytest.approx(d, rel=1e-9)
    report(3, "direct, quadratic-form and difference-kernel variances agree "
              "to 1e-9 on 1000 random windows")


def test_criterion_04_trend_invariance():
    rng = np.random.default_rng(41)
    x = rng.normal(size=600)
    scales = [10, 30, 75, 150]
    for m in (1, 2, 3, 4):
        base = dfa(x, m, scales).f
        for q in range(m):
            beta = [0.0] * q + [3.0 / 600**q]
            shifted = dfa(add_polynomial_trend(x, beta), m, scales).f
            assert np.abs(shifted / base - 1).max() < 1e-8, (m, q)
    report(4, "polynomial trends below the detrending order move F by "
              "less than 1e-8 relative")


def test_criterion_05_scaling_law():
    for s in (5, 17, 200, 4096):
        assert expected_curve(FGN(0.5), 1, [s])[0] == pytest.approx(
            (s**2 - 4) / (15 * s), rel=1e-9)
    scales = 2 ** np.arange(8, 13)
    logs = np.log(scales)
    for h in (0.2, 0.7, 1.1, 1.5):
        for m in (1, 2, 3):
            ef2 = np.array([
                expected_curve(scaling_model(h), m, [int(s)])[0]
                for s in scales])
            slope = np.polyfit(logs, np.log(ef2), 1)[0]
            assert abs(slope - 2 * h) < 0.02, (h, m, slope)
            lam = asymptotic_lambda(m, h)
            ratio = ef2[-1] / (lam * 4096.0 ** (2 * h))
            assert 0.98 < ratio < 1.02, (h, m, ratio)
    report(5, "expected curves scale as s^(2H) with the predicted "
              "prefactor for H in {0.2, 0.7, 1.1, 1.5}, m in {1, 2, 3}")


def test_criterion_06_antipersistent_power_law_substitution():
    class PowerLawAcvf:
        """Pure power-law stand-in for the anti-persistent autocovariance."""

        def acvf(self, lags):
            lags = np.asarray(lags)
            safe = np.where(lags == 0, 1, lags)
            vals = np.asarray(fgn_acvf_asymptotic(0.3, 1.0, safe), dtype=float)
            return np.where(lags == 0, 1.0, vals)

    scales = 2 ** np.arange(14, 19)
    logs = np.log(scales)
    ef_asym = np.array([
        expected_curve(PowerLawAcvf(), 1, [int(s)])[0] for s in scales])
    ef_exact = np.array([
        expected_curve(FGN(0.3), 1, [int(s)])[0] for s in scales])
    slope_asym = np.polyfit(logs, np.log(ef_asym), 1)[0]
    slope_exact = np.polyfit(logs, np.log(ef_exact), 1)[0]
    assert abs(slope_asym - 1.0) < 0.05, slope_asym
    assert abs(slope_exact - 0.6) < 0.02, slope_exact
    report(6, "power-law acvf substitution yields exponent 1.0 +- 0.05 "
              "while the exact acvf yields 0.6 +- 0.02 (H = 0.3)")


def test_criterion_07_wrong_correction_backfires_for_motion():
    for s in range(3, 51):
        dev_lo = correction_function(1, 0.9, s) - 1.0
        dev_hi = correction_function(1, 1.1, s) - 1.0
        assert dev_lo < 0 < dev_hi, s
    m, h = 1, 1.1
    lam = asymptotic_lambda(m, h)
    worst_raw = worst_mod = 0.0
    for s in range(16, 257, 16):
        ef2 = expected_curve(scaling_model(h), m, [s])[0]
        target = lam * float(s) ** (2 * h)
        k2_wn = correction_function(m, 0.5, s)
        worst_raw = max(worst_raw, abs(ef2 / target - 1))
        worst_mod = max(worst_mod, abs(modified_f2(ef2, k2_wn) / target - 1))
    assert worst_mod > worst_raw
    report(7, "finite-size deviations have opposite signs across the "
              "stationarity boundary and the stationary correction "
              "worsens the motion curve")


def test_criterion_08_exponential_correlation_crossover():
    tau, gamma0 = 20.0, 1.0
    step_var = 2.0 * gamma0 * (1.0 - np.exp(-1.0 / tau))
    ou = OU(tau)
    for s in range(3, 9):
        f_ou = np.sqrt(expected_curve(ou, 1, [s])[0])
        f_rw = np.sqrt(step_var * expected_curve(FBM(1.5), 1, [s])[0])
        assert abs(f_ou / f_rw - 1) < 0.05, s
    big = np.array([1000, 2048, 4096, 8192])
    f2 = np.array([expected_curve(ou, 1, [int(s)])[0] for s in big])
    slope = np.polyfit(np.log(big), np.log(np.sqrt(f2)), 1)[0]
    assert abs(slope - 0.5) < 0.05, slope
    report(8, "exponentially correlated curve tracks the random walk "
              "within 5% at small scales and flattens to slope 0.5 "
              "past the correlation time")


def test_criterion_09_gap_estimator_bias_contrast(mc_ensembles):
    # The reweighting makes the difference-kernel estimator exactly
    # unbiased only at scales where every pair (k, j) is jointly present
    # in at least one window; pairs covered nowhere are dropped, which
    # provably biases the few largest scales (3-4 windows) for any 20%
    # mask. Unbiasedness is therefore asserted on the fully covered part
    # of the default grid, and the existence of the partially covered
    # tail is pinned explicitly rather than silently skipped.
    scales = mc_ensembles["scales"]
    mask = mc_ensembles["mask"]
    covered = np.array([(gap_weights(mask, int(s)) > 0).all()
                        for s in scales])
    assert covered.sum() >= 20, "mask leaves too few fully covered scales"
    assert not covered.all(), "expected a partially covered large-scale tail"
    assert covered[: covered.sum()].all(), "coverage should fail only at the top"
    for tag in ("noise", "motion"):
        data = mc_ensembles[tag]
        z_hat = combined_z(data["hat"], data["full"])[covered]
        assert z_hat.max() <= 3.0, (tag, z_hat.max())
    z_tilde_noise = combined_z(mc_ensembles["noise"]["tilde"],
                               mc_ensembles["noise"]["full"])[covered]
    assert z_tilde_noise.max() <= 3.0, z_tilde_noise.max()
    z_tilde_motion = combined_z(mc_ensembles["motion"]["tilde"],
                                mc_ensembles["motion"]["full"])[covered]
    assert z_tilde_motion.max() > 3.0, z_tilde_motion.max()
    report(9, "difference-kernel estimator unbiased for both classes under "
              "20% block gaps (500 replicates, all fully covered scales); "
              "product-kernel estimator unbiased for noise but demonstrably "
              "biased for motion")


def test_criterion_10_gap_free_collapse():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(40, 400))
        m = int(rng.integers(1, 4))
        x = rng.normal(size=n)
        scales = default_scale_grid(n, m, count=6)
        gs = GappedSeries(x, np.ones(n, bool))
        ref = dfa(x, m, scales).f2
        assert np.array_equal(f_hat(gs, m, scales).f2, ref)
        assert np.array_equal(f_tilde(gs, m, scales).f2, ref)
    report(10, "gap-tolerant estimators reproduce standard DFA bit for bit "
               "on 100 gap-free inputs")


def test_criterion_11_window_offset_independence():
    for h in (0.1, 0.55, 0.9):
        kern = lambda t1, t2: fbm_covariance(h, 1.0, t1, t2)
        vals = [expected_f2_general(kern, 2, 64, t=t)
                for t in (0, 100, 1000)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-9)
    report(11, "general expectation engine is window-offset invariant "
               "to 1e-9 relative")
