"""Tests for the weight function and its asymptotic expansion."""

import tracemalloc
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest

from dfakit.core import weight_matrix
from dfakit.estimators import dfa
from dfakit.exceptions import DFAError
from dfakit.expectation import expected_curve
from dfakit.models import FGN
from dfakit.weights import (
    MAX_FLOAT_ORDER,
    _closed_form,
    asymptotic_coefficients,
    asymptotic_inverse_gram,
    asymptotic_weight,
    closed_form_g,
    weight_function,
)

# exact d_q rows for orders 1..8
D_TABLE = {
    1: ["1/15", "-1/2", "1", "-2/3", "0", "1/10"],
    2: ["3/70", "-1/2", "3/2", "-3/2", "0", "3/5", "0", "-1/7"],
    3: ["2/63", "-1/2", "2", "-8/3", "0", "2", "0", "-8/7", "0", "5/18"],
    4: ["5/198", "-1/2", "5/2", "-25/6", "0", "5", "0", "-5", "0", "25/9",
        "0", "-7/11"],
    5: ["3/143", "-1/2", "3", "-6", "0", "21/2", "0", "-16", "0", "15", "0",
        "-84/11", "0", "21/13"],
    6: ["7/390", "-1/2", "7/2", "-49/6", "0", "98/5", "0", "-42", "0",
        "175/3", "0", "-49", "0", "294/13", "0", "-22/5"],
    7: ["4/255", "-1/2", "4", "-32/3", "0", "168/5", "0", "-96", "0",
        "550/3", "0", "-224", "0", "168", "0", "-352/5", "0", "429/34"],
    8: ["9/646", "-1/2", "9/2", "-27/2", "0", "54", "0", "-198", "0", "495",
        "0", "-819", "0", "882", "0", "-594", "0", "3861/17", "0",
        "-715/19"],
}


def matrix_diagonal_sums(m, s):
    """G(j, s) = sum_k A_{k, k+j} of the explicit weight matrix."""
    idx = np.arange(s)
    lag = (idx[None, :] - idx[:, None]).ravel()
    upper = lag >= 0
    a = weight_matrix(m, s).entries.ravel()
    return np.bincount(lag[upper], weights=a[upper], minlength=s)


def fraction_inverse(mat):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == k)) for k in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def exact_weight_matrix_g(m, s):
    """G(j, s) for every lag from A = D^T (I - Q) D in exact arithmetic,
    with Q = B^T (B B^T)^{-1} B and the Gram inverse exact."""
    b = np.array([[t**a for t in range(1, s + 1)] for a in range(m + 1)],
                 dtype=object)
    inv = fraction_inverse([[Fraction(int(x)) for x in row]
                            for row in b @ b.T])
    scale = lcm(*(v.denominator for row in inv for v in row))
    inv_int = np.array([[int(v * scale) for v in row] for row in inv],
                       dtype=object)
    resid = scale * np.eye(s, dtype=int).astype(object) - b.T @ inv_int @ b
    d = np.tril(np.ones((s, s), dtype=int)).astype(object)
    a = d.T @ resid @ d
    return [Fraction(sum(a[k, k + j] for k in range(s - j)), scale)
            for j in range(s)]


def paper_g(m, j, s):
    """The paper's closed forms of G(j, s) for orders 1 and 2."""
    j, s = Fraction(j), Fraction(s)
    cubic = (j - s - 1) * (j - s) * (j - s + 1)
    if m == 1:
        return cubic * (3 * j**2 + 9 * j * s - 2 * s**2 + 8) / (
            30 * s * (s**2 - 1))
    return -cubic * (
        10 * j**4 + 30 * j**3 * s + 2 * j**2 * (9 * s**2 + 19)
        + 2 * j * s * (67 - 13 * s**2) + 3 * (s**4 - 13 * s**2 + 36)
    ) / (70 * s * (s**4 - 5 * s**2 + 4))


class TestWeightFunction:
    def test_g0_m1_s10(self):
        assert weight_function(1, 10)[0] == pytest.approx(6.4, rel=1e-12)

    def test_g1_m1_s10(self):
        assert weight_function(1, 10)[1] == pytest.approx(2.4, rel=1e-12)

    def test_array_is_read_only_and_fresh(self):
        g = weight_function(2, 12)
        again = weight_function(2, 12)
        assert g is not again and np.array_equal(g, again)
        for array in (g, again):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_keeps_no_array(self):
        # 20 scales near 2^16 are 10 MiB of G; none of it outlives its call
        weight_function(3, 5)  # derives the closed form of m = 3
        tracemalloc.start()
        try:
            for s in range(2 ** 16 - 20, 2 ** 16):
                weight_function(3, s)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2 ** 20

    @pytest.mark.parametrize("m", [1, 2])
    def test_last_lag_vanishes(self, m):
        for s in (m + 2, 17, 64):
            g = weight_function(m, s)
            assert abs(g[s - 1]) < 1e-9 * abs(g[0])

    def test_matches_matrix_trace(self):
        for m, s in [(1, 12), (3, 47), (6, 129)]:
            a = weight_matrix(m, s).entries
            ref = np.array([a.trace(offset=j) for j in range(s)])
            got = weight_function(m, s)
            assert np.abs(got - ref).max() < 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_zero_sum_identity(self, m):
        for s in (m + 2, 33, 128, 512):
            g = weight_function(m, s)
            total = g[0] + 2 * g[1:].sum()
            assert abs(total) < 1e-8 * g[0]


class TestClosedForm:
    def test_m1_j0_s10(self):
        assert closed_form_g(1, 0, 10) == pytest.approx(6.4, rel=1e-15)
        assert closed_form_g(1, 0, 10, exact=True) == Fraction(32, 5)

    @pytest.mark.parametrize("m", range(7))
    def test_last_lag_exact_zero(self, m):
        assert closed_form_g(m, 99, 100, exact=True) == 0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            closed_form_g(-1, 0, 10)

    @pytest.mark.parametrize("call,match", [
        (lambda: closed_form_g(2, 10, 10), r"lag 10 outside 0\.\.9"),
        (lambda: asymptotic_weight(2, 10, 10), r"lag 10 outside 0\.\.9"),
        (lambda: asymptotic_weight(2, -1, 10), r"lag -1 outside 0\.\.9"),
        (lambda: asymptotic_inverse_gram(-1), "order must be >= 0"),
        (lambda: closed_form_g(1, 0.5, 8), r"lag 0\.5 outside 0\.\.7"),
        (lambda: weight_function(1.5, 8), "order 1.5 is not an integer"),
        (lambda: expected_curve(FGN(0.7), 1.5, [8]),
         "order 1.5 is not an integer"),
        (lambda: dfa(np.ones(32), 1.5, [8]), "order 1.5 is not an integer"),
    ], ids=["closed-form-j-at-s", "asymptotic-j-at-s",
            "asymptotic-negative-j", "inverse-gram-order",
            "closed-form-fractional-j", "weight-function-fractional-order",
            "expected-curve-fractional-order", "dfa-fractional-order"])
    def test_argument_outside_domain_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("s", [7, 33, 100, 512])
    def test_agrees_with_matrix(self, m, s):
        if s < m + 2:
            pytest.skip("scale below minimum")
        g = matrix_diagonal_sums(m, s)
        cf = weight_function(m, s)
        assert np.abs(cf - g).max() < 1e-9 * np.abs(g).max()

    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("s", [10, 1000, 8000, 65536])
    def test_weight_function_matches_exact(self, m, s):
        g = weight_function(m, s)
        rng = np.random.default_rng(1000 * m + s)
        lags = {0, 1, s // 2, s - 1, *rng.integers(0, s, 20).tolist()}
        tol = Fraction(2e-15) * Fraction(np.abs(g).max())
        for j in lags:
            exact = closed_form_g(m, j, s, exact=True)
            assert abs(Fraction(g[j]) - exact) <= tol, j

    @pytest.mark.parametrize("m", range(MAX_FLOAT_ORDER + 1))
    def test_small_scales_match_exact(self, m):
        # the Horner terms cancel most at small scales: every lag of each
        # s = m+2..6m+2
        for s in range(m + 2, 6 * m + 3):
            g = weight_function(m, s)
            tol = Fraction(2e-15) * Fraction(np.abs(g).max())
            for j in range(s):
                exact = closed_form_g(m, j, s, exact=True)
                assert abs(Fraction(g[j]) - exact) <= tol, (s, j)

    @pytest.mark.parametrize("evaluate", [weight_function])
    def test_float_order_capped(self, evaluate):
        misses = _closed_form.cache_info().misses
        with pytest.raises(DFAError, match="order 9"):
            evaluate(MAX_FLOAT_ORDER + 1, 20)
        # refused before the closed form of the order is derived
        assert _closed_form.cache_info().misses == misses

    def test_exact_paths_take_every_order(self):
        m = MAX_FLOAT_ORDER + 1
        assert len(asymptotic_coefficients(m)) == 2 * m + 4
        assert closed_form_g(m, m + 1, m + 2, exact=True) == 0

    @pytest.mark.parametrize("m", range(7))
    def test_exact_matches_fraction_matrix(self, m):
        # the form is fitted on scales 2m+3..4m+3; check it off the fit
        for s in sorted({m + 2, 2 * m + 2, 4 * m + 4, 40}):
            want = exact_weight_matrix_g(m, s)
            got = [closed_form_g(m, j, s, exact=True) for j in range(s)]
            assert got == want, s

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_paper_forms(self, m):
        for s in (m + 2, 10, 97):
            for j in range(s):
                assert closed_form_g(m, j, s, exact=True) == paper_g(m, j, s)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_leading_terms_are_asymptotic_coefficients(self, m):
        # N = G s prod(s^2 - k^2) = (j-s-1)(j-s)(j-s+1) Q has total degree
        # 2m+3, and its top terms d_p j^p s^{2m+3-p} are the expansion's
        cf = _closed_form(m)
        q = [[Fraction(v, cf.denominator) for v in row] for row in cf.quotient]
        deg = 2 * m
        assert all(v == 0 for p, row in enumerate(q)
                   for k, v in enumerate(row) if p + k > deg)
        top = [q[p][deg - p] for p in range(deg + 1)]
        lead = [sum(comb(3, i) * (-1) ** (3 - i) * top[p - i]
                    for i in range(4) if 0 <= p - i <= deg)
                for p in range(deg + 4)]
        assert tuple(lead) == asymptotic_coefficients(m)

    def test_vector_matches_scalar(self):
        cf = weight_function(2, 40)
        for j in (0, 1, 17, 39):
            assert cf[j] == pytest.approx(closed_form_g(2, j, 40), rel=1e-12)


class TestInverseGram:
    def test_order0(self):
        assert asymptotic_inverse_gram(0) == ((Fraction(1),),)

    def test_order1(self):
        assert asymptotic_inverse_gram(1) == (
            (Fraction(4), Fraction(-6)),
            (Fraction(-6), Fraction(12)),
        )

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_exact_inverse_and_integer(self, m):
        ct = asymptotic_inverse_gram(m)
        n = m + 1
        gram = [[Fraction(1, i + j - 1) for j in range(1, n + 1)]
                for i in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                assert ct[i][j].denominator == 1
                prod = sum(gram[i][k] * ct[k][j] for k in range(n))
                assert prod == (1 if i == j else 0)


class TestAsymptoticCoefficients:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exact_rows(self, m):
        got = asymptotic_coefficients(m)
        want = tuple(Fraction(x) for x in D_TABLE[m])
        assert got == want

    @pytest.mark.parametrize("m", range(1, 9))
    def test_d1_is_minus_half(self, m):
        assert asymptotic_coefficients(m)[1] == Fraction(-1, 2)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_moment_identity(self, m):
        # the rows of A sum to zero, so G(0, s) + 2 sum_{j>0} G(j, s) = 0;
        # at leading order in s that is sum_q d_q / (q + 1) = 0
        d = asymptotic_coefficients(m)
        assert sum(dq / (q + 1) for q, dq in enumerate(d)) == 0

    def test_length(self):
        for m in range(1, 8):
            assert len(asymptotic_coefficients(m)) == 2 * m + 4

    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_large_scale_weights(self, m):
        # numeric oracle: rescaled G(j, s) at fixed j/s converges to the
        # expansion polynomial evaluated at that ratio
        s = 4096
        g = weight_function(m, s)
        d = [float(x) for x in asymptotic_coefficients(m)]
        for ratio in (0.1, 0.25, 0.5, 0.75):
            j = int(round(ratio * s))
            poly = sum(dq * (j / s) ** q for q, dq in enumerate(d))
            assert g[j] / s**2 == pytest.approx(poly, rel=1e-3)


class TestAsymptoticWeight:
    def test_lag_zero(self):
        assert asymptotic_weight(1, 0, 100) == pytest.approx(10000 / 15,
                                                             rel=1e-12)

    def test_ratio_converges_monotonically(self):
        ratios = []
        for s in (100, 1000, 10000):
            j = s // 2
            exact = weight_function(1, s)[j]
            ratios.append(asymptotic_weight(1, j, s) / exact)
        errs = [abs(r - 1) for r in ratios]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01

    def test_shape_m2_s100(self):
        # positive near j=0, changes sign, returns to ~0 at j=s-1
        g = np.array([asymptotic_weight(2, j, 100) for j in range(100)])
        assert g[0] > 0 and g[1] > 0
        assert g.min() < 0
        assert abs(g[99]) < 0.05 * g[0]
