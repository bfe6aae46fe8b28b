"""Weight functions G(j, s) and their large-s expansion.

G(j, s) is the sum of the j'th diagonal of the weight matrix A; it is
the kernel that turns an autocovariance or variogram into the expected
squared fluctuation. weight_function serves each order by one route:

* orders 1 and 2: the paper's closed rational form, evaluated in float64
  in O(s) time and memory; within 2.2e-16 of max|G| of the exact
  Fraction value at every lag, measured at s = 1000, 8000 and 2^16;
* every other order: diagonal sums of A by FFT, O(s log s) time and
  O(s) memory; up to 7e-14 of max|G| from the exact value at s <= 300
  (orders 0, 3, 4 and 6), an error that grows with s: for orders 1 and
  2 this route reached 1.2e-12 of max|G| at s = 8000.

closed_form_g evaluates the closed form exactly with Fractions. For
large s,

    G(j, s) ~ sum_q d_q s^{2-q} j^q     (j > 0),   G(0, s) ~ d_0 s^2,

and the coefficients d_q are assembled here in exact rational
arithmetic: float evaluation of the alternating binomial sums involved
loses precision already around order 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .core import _orthonormal_rowspace, _projected_cumsum_rows
from .exceptions import ScaleTooSmallError


@dataclass(frozen=True)
class WeightFunctionTable:
    """G(j, s) for j = 0..s-1 at one (order, scale) pair."""

    order: int
    scale: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Exact expansion coefficients d_0..d_{2m+3} with intermediates."""

    order: int
    d: tuple[Fraction, ...]
    inverse_gram: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]


@lru_cache(maxsize=256)
def weight_function(m: int, s: int) -> WeightFunctionTable:
    """Diagonal sums G(j, s) = sum_k A_{k, k+j} of the weight matrix.

    Orders 1 and 2 take the closed form (closed_form_g_values), every
    other order the FFT route (_diagonal_sums); see the module docstring
    for their cost and precision.
    """
    values = (closed_form_g_values(m, s) if m in (1, 2)
              else _diagonal_sums(m, s))
    return WeightFunctionTable(order=m, scale=s, values=values)


def _diagonal_sums(m: int, s: int) -> np.ndarray:
    """G(j, s) for any order without materialising the s x s matrix.

    The D^T D part has the closed diagonal sum (s-j)(s-j+1)/2; the
    projected part is the summed autocorrelation of the m+1 rows of
    V = U^T D, one inverse FFT of their summed power spectra.
    """
    v = _projected_cumsum_rows(_orthonormal_rowspace(m, s))
    j = np.arange(s)
    dtd_diag = (s - j) * (s - j + 1) / 2.0
    nfft = 2 ** int(np.ceil(np.log2(2 * s)))
    spec = np.fft.rfft(v, nfft, axis=1)
    power = (spec.real ** 2 + spec.imag ** 2).sum(axis=0)
    return dtd_diag - np.fft.irfft(power, nfft)[:s]


def closed_form_g(m: int, j: int, s: int, exact: bool = False):
    """Closed rational form of G(j, s), available for m in {1, 2}.

    Evaluated in exact rational arithmetic; returns a float unless
    ``exact`` is set.
    """
    if m not in (1, 2):
        raise ValueError(f"closed form only known for orders 1 and 2, got {m}")
    if s < m + 2:
        raise ScaleTooSmallError(f"scale {s} too small for order {m}")
    if not 0 <= j <= s - 1:
        raise ValueError(f"lag {j} outside 0..{s - 1}")
    jf, sf = Fraction(j), Fraction(s)
    cubic = (jf - sf - 1) * (jf - sf) * (jf - sf + 1)
    if m == 1:
        g = cubic * (3 * jf**2 + 9 * jf * sf - 2 * sf**2 + 8)
        g /= 30 * sf * (sf**2 - 1)
    else:
        g = -cubic * (
            10 * jf**4
            + 30 * jf**3 * sf
            + 2 * jf**2 * (9 * sf**2 + 19)
            + 2 * jf * sf * (67 - 13 * sf**2)
            + 3 * (sf**4 - 13 * sf**2 + 36)
        )
        g /= 70 * sf * (sf**4 - 5 * sf**2 + 4)
    return g if exact else float(g)


def closed_form_g_values(m: int, s: int) -> np.ndarray:
    """Vectorised float evaluation of the closed form for j = 0..s-1.

    Same rational polynomials as closed_form_g, evaluated in float64 in
    factored form; lets the expectation engines reach scales where the
    s x s weight matrix would be too large to build.
    """
    if m not in (1, 2):
        raise ValueError(f"closed form only known for orders 1 and 2, got {m}")
    if s < m + 2:
        raise ScaleTooSmallError(f"scale {s} too small for order {m}")
    j = np.arange(s, dtype=float)
    sf = float(s)
    cubic = (j - sf - 1) * (j - sf) * (j - sf + 1)
    if m == 1:
        return cubic * (3 * j**2 + 9 * j * sf - 2 * sf**2 + 8) / (
            30 * sf * (sf**2 - 1))
    return -cubic * (
        10 * j**4 + 30 * j**3 * sf + 2 * j**2 * (9 * sf**2 + 19)
        + 2 * j * sf * (67 - 13 * sf**2) + 3 * (sf**4 - 13 * sf**2 + 36)
    ) / (70 * sf * (sf**4 - 5 * sf**2 + 4))


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
def asymptotic_coefficients(m: int) -> AsymptoticCoefficients:
    """Assemble d_0..d_{2m+3} from the stripped inverse Gram matrix.

    The contribution of D^T Q D splits into three coefficient families
    b^(1), b^(2), b^(3) (expansion of the three diagonal-sum terms);
    the D^T D diagonal contributes (1/2, -1, 1/2) at powers 0..2.
    """
    if m < 1:
        raise ValueError("asymptotic coefficients need order >= 1")
    n = m + 1
    ct = asymptotic_inverse_gram(m)
    # c_{d,l} = ct_{d,l} / (d l), 1-based indices
    c = {(d, l): ct[d - 1][l - 1] / (d * l)
         for d in range(1, n + 1) for l in range(1, n + 1)}
    qmax = 2 * m + 3

    def b1(q: int) -> Fraction:
        if q == 0:
            return sum((c[d, l] * (1 - Fraction(1, l + 1))
                        for d in range(1, n + 1) for l in range(1, n + 1)),
                       Fraction(0))
        if q == 1:
            return -sum(c.values(), Fraction(0))
        if 2 <= q <= m + 2:
            return Fraction(1, q) * sum((c[d, q - 1]
                                         for d in range(1, n + 1)),
                                        Fraction(0))
        return Fraction(0)

    def b2(q: int) -> Fraction:
        if q == 0:
            return -sum((c[d, l] / (d + 1)
                         for d in range(1, n + 1) for l in range(1, n + 1)),
                        Fraction(0))
        if q == 1:
            return sum((c[d, l] * comb(d + 1, d) / (d + 1)
                        for d in range(1, n + 1) for l in range(1, n + 1)),
                       Fraction(0))
        if 2 <= q <= m + 2:
            sign = Fraction((-1) ** (q - 1))
            return sign * sum(
                (c[d, l] * comb(d + 1, d + 1 - q) / (d + 1)
                 for d in range(q - 1, n + 1) for l in range(1, n + 1)),
                Fraction(0))
        return Fraction(0)

    def a_coeff(k: int, d: int, l: int) -> Fraction:
        return sum(
            (Fraction(comb(l, r) * (-1) ** (k - r), d + l + 1 - r)
             * comb(d + l + 1 - r, d + l + 1 - k)
             for r in range(0, min(l, k) + 1)),
            Fraction(0))

    def b3(q: int) -> Fraction:
        # full double loop with an explicit index filter
        total = Fraction(0)
        for d in range(1, n + 1):
            for l in range(1, n + 1):
                if d + l >= q - 1:
                    total += a_coeff(q, d, l) * c[d, l]
        return total

    b = tuple(b1(q) + b2(q) + b3(q) for q in range(qmax + 1))
    lead = (Fraction(1, 2), Fraction(-1), Fraction(1, 2))
    d_coeffs = tuple(
        (lead[q] if q <= 2 else Fraction(0)) - b[q] for q in range(qmax + 1)
    )
    return AsymptoticCoefficients(order=m, d=d_coeffs, inverse_gram=ct, b=b)


def asymptotic_weight(m: int, j: int, s: int) -> float:
    """Large-s approximation of G(j, s)."""
    if not 0 <= j <= s - 1:
        raise ValueError(f"lag {j} outside 0..{s - 1}")
    d = asymptotic_coefficients(m).d
    if j == 0:
        return float(d[0]) * s**2
    return float(sum(dq * Fraction(s) ** (2 - q) * Fraction(j) ** q
                     for q, dq in enumerate(d)))
