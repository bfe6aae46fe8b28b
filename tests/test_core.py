"""Tests for the DFA linear-algebra core."""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from dfakit.core import (
    _orthonormal_rowspace,
    _weight_rows,
    apply_residual_projection,
    design_matrix,
    hat_matrix,
    profile,
    residual_variance_direct,
    residual_variance_increment,
    residual_variance_quadratic,
    weight_matrix,
)
from dfakit.estimators import (
    GappedSeries,
    dfa,
    ensemble,
    f_hat,
    f_tilde,
    gap_weights,
)
from dfakit.exceptions import (
    DimensionMismatchError,
    OrderZeroUnsupportedError,
    ScaleTooSmallError,
)
from dfakit.expectation import expected_curve, expected_f2_general
from dfakit.models import FGN
from dfakit.weights import closed_form_g, weight_function
from test_weights import fraction_inverse


class TestDesignMatrix:
    def test_order1_scale3(self):
        b = design_matrix(1, 3)
        assert np.array_equal(b, [[1, 1, 1], [1, 2, 3]])

    def test_order0_scale4(self):
        assert np.array_equal(design_matrix(0, 4), [[1, 1, 1, 1]])

    def test_order2_row3(self):
        b = design_matrix(2, 5)
        assert np.array_equal(b[2], [1, 4, 9, 16, 25])

    def test_entries_exact_integers(self):
        b = design_matrix(4, 30)
        assert np.array_equal(b, np.round(b))

    def test_scale_too_small(self):
        with pytest.raises(ScaleTooSmallError):
            design_matrix(2, 3)


class TestHatMatrix:
    def test_mean_projection(self):
        q = hat_matrix(0, 7)
        assert np.allclose(q, 1.0 / 7)

    def test_rowspace_fixed_point(self):
        q = hat_matrix(1, 3)
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(q @ v, v, atol=1e-12)

    def test_idempotent_m2_s20(self):
        q = hat_matrix(2, 20)
        assert np.abs(q @ q - q).max() < 1e-10

    @pytest.mark.parametrize("m,s", [(1, 16), (3, 100), (6, 1024), (6, 4096)])
    def test_symmetric_idempotent(self, m, s):
        q = hat_matrix(m, s)
        assert np.abs(q - q.T).max() < 1e-10
        assert np.abs(q @ q - q).max() < 1e-10

    def test_rank(self):
        q = hat_matrix(3, 40)
        assert np.linalg.matrix_rank(q) == 4


class TestGramBasis:
    """The basis from the Gram-polynomial recurrence (worst seen over
    the grid below: 3.6e-15 orthonormality, 1.7e-15 span residual)."""

    GRID = [(m, s) for m in range(11)
            for s in (m + 2, m + 3, 50, 1000, 2 ** 16)]

    @pytest.mark.parametrize("m,s", GRID)
    def test_orthonormal(self, m, s):
        u = _orthonormal_rowspace(m, s)
        assert u.shape == (s, m + 1)
        assert np.abs(u.T @ u - np.eye(m + 1)).max() <= 1e-14

    @pytest.mark.parametrize("m,s", GRID)
    def test_spans_design_matrix(self, m, s):
        u = _orthonormal_rowspace(m, s)
        bt = design_matrix(m, s).T
        bt /= np.linalg.norm(bt, axis=0)
        assert np.abs(bt - u @ (u.T @ bt)).max() <= 1e-14

    def test_scale_too_small(self):
        with pytest.raises(ScaleTooSmallError):
            _orthonormal_rowspace(3, 4)


def exact_weight_matrix(m, s):
    """A = D^T D - C^T (B B^T)^{-1} C in exact arithmetic, C = B D the
    suffix power sums; as an object array of Fractions."""
    c = [[sum(t ** k for t in range(j, s + 1)) for j in range(1, s + 1)]
         for k in range(m + 1)]
    inv = fraction_inverse([[Fraction(sum(t ** (k + l)
                                          for t in range(1, s + 1)))
                             for l in range(m + 1)] for k in range(m + 1)])
    scale = lcm(*(v.denominator for row in inv for v in row))
    inv_int = np.array([[int(v * scale) for v in row] for row in inv],
                       dtype=object)
    c = np.array(c, dtype=object)
    vtv = c.T @ inv_int @ c
    idx = np.arange(1, s + 1)
    dtd = (s + 1 - np.maximum.outer(idx, idx)).astype(object)
    return np.array([[Fraction(int(d) * scale - int(v), scale)
                      for d, v in zip(drow, vrow)]
                     for drow, vrow in zip(dtd, vtv)], dtype=object)


class TestWeightMatrixExact:
    @pytest.mark.parametrize("m,s", [(1, 10), (2, 40), (4, 100), (6, 30)])
    def test_matches_fraction_evaluation(self, m, s):
        # worst seen: 1.1e-13 of max|A| at (4, 100)
        exact = exact_weight_matrix(m, s)
        got = weight_matrix(m, s).entries
        ref = exact.astype(float)
        err = max(abs(Fraction(g) - e)
                  for g, e in zip(got.ravel(), exact.ravel()))
        assert err <= Fraction(2e-13) * Fraction(np.abs(ref).max())

    def test_hand_value(self):
        # the trace is G(0, s), 32/5 at (1, 10)
        assert exact_weight_matrix(1, 10).trace() == Fraction(32, 5)


class TestWeightMatrix:
    def test_row_sums_zero(self):
        a = weight_matrix(1, 10).entries
        assert np.abs(a.sum(axis=1)).max() < 1e-10

    def test_trace_m1_s10(self):
        a = weight_matrix(1, 10).entries
        assert a.trace() == pytest.approx(6.4, abs=1e-10)

    def test_linear_profile_annihilated(self):
        # quadratic form on the raw series whose profile is linear
        a = weight_matrix(1, 3)
        x = np.array([2.0, 2.0, 2.0])  # profile (2, 4, 6)
        assert residual_variance_quadratic(x, a) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_psd(self):
        a = weight_matrix(3, 60).entries
        assert np.abs(a - a.T).max() < 1e-10
        assert np.linalg.eigvalsh(a).min() > -1e-9

    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_null_vector_identity(self, m):
        # rows summing to zero kills sum a_{k,j} (x_k^2 + x_j^2)
        s = 50
        a = weight_matrix(m, s).entries
        rng = np.random.default_rng(m)
        x2 = rng.normal(size=s) ** 2
        total = (a * (x2[:, None] + x2[None, :])).sum()
        assert abs(total) < 1e-8 * np.abs(a).max()

    @pytest.mark.parametrize("m", range(9))
    def test_tiles_equal_dense_bit_for_bit(self, m):
        # the gapped estimators walk A in tiles whose width depends on s;
        # f_tilde's offset terms amplify a last-bit change of A, so every
        # width must give the same bits (at s = 1500 V^T V takes several
        # chunks, which the tiles straddle)
        for s, widths in ((m + 2, (1,)), (37, (1, 3, 7)), (300, (7, 299)),
                          (1500, (200, 499))):
            dense = weight_matrix(m, s).entries
            u = _orthonormal_rowspace(m, s)
            for width in widths:
                tiled = np.empty((s, s))
                for rows, a in _weight_rows(u, width):
                    assert a.shape == (rows.stop - rows.start, s)
                    tiled[rows] = a
                assert np.array_equal(tiled, dense), (s, width)


class TestProfile:
    def test_basic(self):
        assert np.array_equal(profile([1, 2, 3]), [1, 3, 6])

    def test_zeros(self):
        assert np.array_equal(profile(np.zeros(5)), np.zeros(5))

    def test_spike(self):
        assert np.array_equal(profile([0, 1, 0]), [0, 1, 1])

    def test_empty(self):
        with pytest.raises(ValueError):
            profile([])


class TestResidualVariance:
    def test_hand_value_direct(self):
        # X = (0, 1, 0) -> profile (0, 1, 1); linear fit residuals
        # (-1/6, 1/3, -1/6)
        assert residual_variance_direct([0.0, 1.0, 1.0], 1) == pytest.approx(
            1 / 18, rel=1e-12)

    def test_interpolating_fit_is_zero(self):
        assert residual_variance_direct([3.0, -1.0], 1) == 0.0

    def test_constant_profile(self):
        assert residual_variance_direct(np.full(9, 2.5), 1) == pytest.approx(
            0.0, abs=1e-24)

    def test_too_short(self):
        with pytest.raises(ScaleTooSmallError):
            residual_variance_direct([1.0], 1)

    def test_hand_value_quadratic(self):
        a = weight_matrix(1, 3)
        assert residual_variance_quadratic(
            np.array([0.0, 1.0, 0.0]), a) == pytest.approx(1 / 18, rel=1e-12)

    def test_hand_value_increment(self):
        a = weight_matrix(1, 3)
        assert residual_variance_increment(
            np.array([0.0, 1.0, 0.0]), a) == pytest.approx(1 / 18, rel=1e-12)

    def test_zero_window(self):
        a = weight_matrix(2, 10)
        assert residual_variance_quadratic(np.zeros(10), a) == 0.0

    def test_quadratic_matches_direct_random(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=50)
        a = weight_matrix(2, 50)
        d = residual_variance_direct(np.cumsum(x), 2)
        assert residual_variance_quadratic(x, a) == pytest.approx(d, rel=1e-10)

    def test_increment_matches_quadratic_random(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=40)
        a = weight_matrix(3, 40)
        q = residual_variance_quadratic(x, a)
        assert residual_variance_increment(x, a) == pytest.approx(q, rel=1e-10)

    def test_increment_shift_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=25)
        a = weight_matrix(1, 25)
        v1 = residual_variance_increment(x, a)
        v2 = residual_variance_increment(x + 123.4, a)
        assert v2 == pytest.approx(v1, rel=1e-9)

    def test_increment_rejects_order_zero(self):
        a = weight_matrix(0, 10)
        with pytest.raises(OrderZeroUnsupportedError):
            residual_variance_increment(np.ones(10), a)

    def test_dimension_mismatch(self):
        a = weight_matrix(1, 10)
        with pytest.raises(DimensionMismatchError):
            residual_variance_quadratic(np.ones(9), a)
        with pytest.raises(DimensionMismatchError):
            residual_variance_increment(np.ones(9), a)


class TestThreeFormEquivalence:
    def test_random_windows(self):
        rng = np.random.default_rng(12345)
        for _ in range(250):
            m = int(rng.integers(1, 7))
            s = int(rng.integers(m + 2, 201))
            x = rng.normal(size=s)
            a = weight_matrix(m, s)
            d = residual_variance_direct(np.cumsum(x), m)
            q = residual_variance_quadratic(x, a)
            i = residual_variance_increment(x, a)
            assert q == pytest.approx(d, rel=1e-9)
            assert i == pytest.approx(d, rel=1e-9)
            assert min(d, q, i) >= -1e-12


class TestTrendInvariance:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_lower_order_trend_ignored(self, m):
        rng = np.random.default_rng(m)
        s = 120
        x = rng.normal(size=s)
        a = weight_matrix(m, s)
        base = residual_variance_quadratic(x, a)
        t = np.arange(1, s + 1, dtype=float)
        trend = sum(0.5 ** k * (t / s) ** k for k in range(m))
        shifted = residual_variance_quadratic(x + trend, a)
        assert shifted == pytest.approx(base, rel=1e-8)

    def test_order_m_trend_not_ignored(self):
        rng = np.random.default_rng(2)
        s = 120
        x = rng.normal(size=s)
        a = weight_matrix(1, s)
        base = residual_variance_quadratic(x, a)
        t = np.arange(1, s + 1, dtype=float)
        shifted = residual_variance_quadratic(x + 0.05 * t, a)
        assert abs(shifted - base) > 1e-3 * base


class TestResidualProjection:
    def test_matches_polyfit(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=64)
        r = apply_residual_projection(3, y)
        t = np.arange(1, 65, dtype=float)
        coef = np.polyfit(t, y, 3)
        assert np.allclose(r, y - np.polyval(coef, t), atol=1e-9)


_X = np.random.default_rng(5).normal(size=64)
_MASK = np.arange(64) % 5 != 0


@pytest.mark.parametrize("scale", [8.5, 8.9, np.nan, np.inf, 1e30, 8.0,
                                   2**63, 2**64 - 1, 2**70])
@pytest.mark.parametrize("call", [
    lambda s: dfa(_X, 2, [16, s]).f2,
    lambda s: f_hat(GappedSeries(_X, _MASK), 2, [s]).f2,
    lambda s: f_tilde(GappedSeries(_X, _MASK), 2, [s]).f2,
    lambda s: ensemble(_X[None], _MASK, 2, [s])["f_tilde"].f2,
    lambda s: expected_curve(FGN(0.7), 2, [s]),
    lambda s: weight_function(2, s),
    lambda s: closed_form_g(2, 3, s),
    lambda s: design_matrix(2, s),
    lambda s: hat_matrix(2, s),
    lambda s: weight_matrix(2, s).entries,
    lambda s: expected_f2_general(lambda a, b: np.minimum(a, b), 2, s),
    lambda s: gap_weights(_MASK, s),
], ids=["dfa", "f_hat", "f_tilde", "ensemble", "expected_curve",
        "weight_function", "closed_form_g", "design_matrix", "hat_matrix",
        "weight_matrix", "expected_f2_general", "gap_weights"])
def test_scale_must_be_a_finite_integer(call, scale):
    """A scale that the cast to int would truncate, wrap or cannot take,
    or past 2^53 (numpy turns 2^63..2^64-1 into uint64, which a cast to
    int64 wraps to a negative scale), is refused, not read as another
    integer; an integral float is that integer."""
    if scale == 8.0:
        assert np.array_equal(call(scale), call(8))
    else:
        with pytest.raises(ValueError, match="not an integer"):
            call(scale)
