"""Weight functions G(j, s) and their large-s expansion.

G(j, s) is the sum of the j'th diagonal of the weight matrix A; it is
the kernel that turns an autocovariance or variogram into the expected
squared fluctuation. Every order m >= 0 takes one route, a closed form:

    G(j, s) = (j-s-1)(j-s)(j-s+1) Q(j, s) / (s prod_{k=1..m}(s^2 - k^2)),

where Q is a polynomial with rational coefficients, of degree 2m in j
with coefficients of degree at most 2m in s (the paper gives it for
m = 1, 2). Q is derived once per order by exact arithmetic and cached
(_closed_form): G is computed exactly from A = D^T D - C^T M C at lags
0..2m of 2m+1 small scales, then interpolated in j and in s. This
takes 0.1, 0.7, 2.3, 6.4, 12, 23 and 37 ms for m = 0..6, and roughly
60 and 120 ms for m = 7 and 8 (one CPU; repeat runs on a shared host
spread by up to 1.5x).

closed_form_g evaluates the closed form exactly; weight_function, the
one float evaluator, evaluates it in float64 in O(s) time and memory as
a read-only array. It is within 3.3e-16 of max|G| of the exact value
for m = 0..6 (measured at every lag of each s <= 64 and of s = 100,
300 and 1000, and at 100 random lags of s = 8000 and 2^16), and for
m = 7, 8 within 2.4e-16 at 24 lags of s = 1000, 8000 and 2^16 and
1.4e-15 at s = 10. Above m = 8 the Bernstein terms cancel at small
scales: at s = m + 2 the error was 8.2e-15, 1.8e-14 and 6.0e-14 of
max|G| for m = 9, 10 and 12.
So the float evaluation takes orders up to MAX_FLOAT_ORDER = 8 and
raises DFAError above, before the closed form of the order is derived;
closed_form_g and the d_q below, which are exact, take every order.
For large s,

    G(j, s) ~ sum_q d_q s^{2-q} j^q     (j > 0),   G(0, s) ~ d_0 s^2,

and the coefficients d_q are read off the same closed form, exactly:
they are the terms of total degree 2m+3 of N = G s prod(s^2 - k^2)
(asymptotic_coefficients). _closed_form is thus the one exact derivation
per order; the other exact quantity, the Hilbert inverse of
asymptotic_inverse_gram, is reported next to the d_q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import NamedTuple

import numpy as np

from .core import _check_scale
from .exceptions import DFAError

#: the highest order whose G weight_function evaluates in float64
MAX_FLOAT_ORDER = 8


def _denominator(m: int, s: int) -> int:
    """s * prod_{k=1..m} (s^2 - k^2), the denominator of G(j, s)."""
    den = s
    for k in range(1, m + 1):
        den *= s * s - k * k
    return den


def _exact_small_scale(m: int, s: int, lags: range) -> list[Fraction]:
    """G(j, s) exactly at the given lags from A = D^T D - C^T M C.

    The j'th diagonal of D^T D sums to (s-j)(s-j+1)/2. C holds the suffix
    power sums C_{a,k} = sum_{t=k..s} t^a and M is the exact inverse of
    the power-sum Gram B B^T; with M scaled to integers by the lcm of its
    denominators, the lag sums of C^T M C are integer sums.
    """
    n = m + 1
    powers = [sum(t**a for t in range(1, s + 1)) for a in range(2 * n - 1)]
    inv = _invert_rational([[Fraction(powers[a + b]) for b in range(n)]
                            for a in range(n)])
    scale = lcm(*(v.denominator for row in inv for v in row))
    mi = [[int(v * scale) for v in row] for row in inv]
    c = []
    for a in range(n):
        acc, row = 0, [0] * s
        for k in range(s, 0, -1):
            acc += k**a
            row[k - 1] = acc
        c.append(row)
    w = [[sum(mi[a][b] * c[b][k] for b in range(n)) for k in range(s)]
         for a in range(n)]
    out = []
    for j in lags:
        proj = sum(c[a][k] * w[a][k + j]
                   for a in range(n) for k in range(s - j))
        out.append(Fraction(scale * (s - j) * (s - j + 1) - 2 * proj,
                            2 * scale))
    return out


def _newton_fit(values: list[Fraction], start: int) -> list[Fraction]:
    """Monomial coefficients of the polynomial of degree < len(values)
    through the points (start + i, values[i]), by forward differences.

    Works on integers: the values are scaled by the lcm D of their
    denominators and the k'th Newton term by (n-1)!/k!, so that
    f(x) = sum_k Delta^k f(start) prod_{i<k} (x - start - i) / k!
    becomes one division by D (n-1)! per coefficient.
    """
    n = len(values)
    scale = lcm(*(v.denominator for v in values))
    diffs = [v.numerator * (scale // v.denominator) for v in values]
    totals = [0] * n
    basis = [1]  # prod_{i<k} (x - start - i), low power first
    for k in range(n):
        weight = diffs[0] * factorial(n - 1) // factorial(k)
        for i, b in enumerate(basis):
            totals[i] += weight * b
        diffs = [hi - lo for lo, hi in zip(diffs, diffs[1:])]
        basis = [prev - (start + k) * b
                 for prev, b in zip([0] + basis, basis + [0])]
    return [Fraction(t, scale * factorial(n - 1)) for t in totals]


class _ClosedForm(NamedTuple):
    """Integer coefficients of the closed form of one order m, n = 2m.

    quotient[p][q]: Q(j, s) = sum_{p,q} quotient[p][q] j^p s^q / denominator.
    ratio[k][t]: the same Q in the basis j^k (s-j)^{n-k},
        Q(j, s) = sum_k a_k(s) j^k (s-j)^{n-k} / (denominator s^n),
        a_k(s) = sum_t ratio[k][t] s^t.
    """

    quotient: tuple[tuple[int, ...], ...]
    ratio: tuple[tuple[int, ...], ...]
    denominator: int


@lru_cache(maxsize=None)
def _closed_form(m: int) -> _ClosedForm:
    """Derive Q(j, s) = N(j, s) / ((j-s-1)(j-s)(j-s+1)) exactly, where
    N(j, s) = G(j, s) s prod_{k=1..m}(s^2 - k^2) is a polynomial.

    Q has degree 2m in j and each coefficient of j^p has degree at most 2m
    in s, so it is fitted exactly from G at lags 0..2m of the scales
    2m+3..4m+3 (the cubic is nonzero there): first in j, then in s.
    """
    n, s0 = 2 * m, 2 * m + 3
    lags = range(n + 1)
    in_j = []
    for s in range(s0, s0 + n + 1):
        g = _exact_small_scale(m, s, lags)
        den = _denominator(m, s)
        in_j.append(_newton_fit(
            [gj * den / ((j - s - 1) * (j - s) * (j - s + 1))
             for j, gj in zip(lags, g)], 0))
    e = [_newton_fit([row[p] for row in in_j], s0) for p in lags]
    denominator = lcm(*(v.denominator for row in e for v in row))
    quotient = [[int(v * denominator) for v in row] for row in e]
    # j^p = j^p ((j + (s-j)) / s)^{n-p}, expanded binomially
    ratio = [[0] * (2 * n + 1) for _ in lags]
    for p, row in enumerate(quotient):
        for k in range(p, n + 1):
            for q, epq in enumerate(row):
                ratio[k][p + q] += comb(n - p, k - p) * epq
    return _ClosedForm(quotient=tuple(map(tuple, quotient)),
                       ratio=tuple(map(tuple, ratio)),
                       denominator=denominator)


def _poly_at(coeffs: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def closed_form_g(m: int, j: int, s: int, exact: bool = False):
    """Closed rational form of G(j, s) for any order m >= 0.

    G = (j-s-1)(j-s)(j-s+1) Q(j, s) / (s prod_{k=1..m}(s^2 - k^2)), with Q
    from _closed_form, evaluated in exact integer arithmetic; returns a
    float (correctly rounded) unless ``exact`` is set.
    """
    m, s = _check_scale(m, s)
    if not (0 <= j < s and j == int(j)):
        raise ValueError(f"lag {j} outside 0..{s - 1}")
    j = int(j)
    cf = _closed_form(m)
    q = _poly_at(tuple(_poly_at(row, s) for row in cf.quotient), j)
    g = Fraction((j - s - 1) * (j - s) * (j - s + 1) * q,
                 cf.denominator * _denominator(m, s))
    return g if exact else float(g)


def weight_function(m: int, s: int) -> np.ndarray:
    """Diagonal sums G(j, s) = sum_k A_{k, k+j} of the weight matrix,
    j = 0..s-1, as a fresh array that raises on write: the float
    evaluation of the closed form, O(s).

    With w = s - j and u = j / w, G = -w (w^2 - 1) w^{2m} sum_k a_k u^k
    (the ratio form of _closed_form). The 2m+1 coefficients a_k /
    (L s^{2m+1} prod(s^2 - k^2)) are formed in exact integer arithmetic
    and rounded once per scale; the sum is a Horner scheme in u >= 0.
    Its terms are the Bernstein terms of Q in x = j/s, scaled by
    (1-x)^{-2m}, so they hardly cancel (see the module docstring for the
    measured error); Horner in x itself was 3.5e-15 of max|G| off at
    m = 6, s = 10. Lets the expectation engines reach scales where the
    s x s weight matrix would be too large to build. Raises DFAError for
    an order above MAX_FLOAT_ORDER.

    Memory: the result plus two s-length scratch arrays, w and u. The
    Horner sum runs in the result; u then holds w^2 and 1 - w^2, which
    are exact for s < 2^26, so G(s-1, s) is exactly 0.
    """
    m, s = _check_scale(m, s)
    if m > MAX_FLOAT_ORDER:
        raise DFAError(f"order {m}: G is evaluated in floating point for "
                       f"orders up to {MAX_FLOAT_ORDER} only, as above that "
                       "its terms cancel at small scales")
    cf = _closed_form(m)
    den = cf.denominator * _denominator(m, s) * s ** (2 * m)
    a = [_poly_at(row, s) / den for row in cf.ratio]
    w = np.arange(s, 0, -1, dtype=float)  # w = s - j
    u = np.arange(s, dtype=float)
    u /= w
    g = np.full(s, a[-1])
    for ak in a[-2::-1]:
        g *= u
        g += ak
    # the prefactor -w (w^2 - 1) w^{2m}, one factor at a time
    g *= w
    np.multiply(w, w, out=u)
    for _ in range(m):
        g *= u
    np.subtract(1.0, u, out=u)
    g *= u
    g.setflags(write=False)
    return g


def _invert_rational(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse of a small matrix of Fractions."""
    n = len(mat)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def asymptotic_inverse_gram(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of the stripped Gram matrix with entries 1/(i+j-1).

    This is the s-independent part of (B B^T)^{-1}; its entries are
    integers (Hilbert-matrix inverse).
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    n = m + 1
    gram = [[Fraction(1, i + j - 1) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    return tuple(tuple(row) for row in _invert_rational(gram))


@lru_cache(maxsize=None)
def asymptotic_coefficients(m: int) -> tuple[Fraction, ...]:
    """The exact d_0..d_{2m+3}, read off the closed form of G (order
    m >= 1).

    N = (j-s-1)(j-s)(j-s+1) Q has total degree 2m+3, and its top terms
    d_p j^p s^{2m+3-p} give G ~ N / s^{2m+1}. The cubic's top part is
    (j-s)^3, so d_p = sum_i C(3, i) (-1)^{3-i} Q_{p-i, 2m-(p-i)} over the
    denominator of Q. The cost is that of _closed_form(m): a cold call
    on its own takes about 5 ms at m = 3 and 45 ms at m = 6 (one CPU),
    but expected and bias derive _closed_form for G anyway, so there the
    d_q cost next to nothing.
    """
    if m < 1:
        raise ValueError("asymptotic coefficients need order >= 1")
    cf, n = _closed_form(m), 2 * m
    top = [cf.quotient[p][n - p] for p in range(n + 1)]
    return tuple(Fraction(sum(comb(3, i) * (-1) ** (3 - i) * top[p - i]
                              for i in range(4) if 0 <= p - i <= n),
                          cf.denominator)
                 for p in range(n + 4))


def asymptotic_weight(m: int, j: int, s: int) -> float:
    """Large-s approximation of G(j, s)."""
    if not 0 <= j <= s - 1:
        raise ValueError(f"lag {j} outside 0..{s - 1}")
    d = asymptotic_coefficients(m)
    if j == 0:
        return float(d[0]) * s**2
    return float(sum(dq * Fraction(s) ** (2 - q) * Fraction(j) ** q
                     for q, dq in enumerate(d)))
