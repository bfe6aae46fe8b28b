"""Linear-algebra core of detrended fluctuation analysis.

A window of length s is detrended by an OLS polynomial fit of order m
against the abscissae 1..s. The machinery is expressed through three
matrices:

* the (m+1) x s design matrix B with rows (1^k, 2^k, ..., s^k),
* the s x s hat matrix Q projecting onto the row space of B,
* the s x s weight matrix A = D^T (I - Q) D, with D the lower-triangular
  all-ones (cumulative sum) matrix.

The per-window residual variance can then be evaluated three equivalent
ways: directly from the windowed profile, as the quadratic form
x^T A x / s in the raw window, or as a weighted sum of squared pairwise
differences. An orthonormal basis U of the row space of B comes from
the Gram-polynomial recurrence on the recentred abscissae t - (s+1)/2,
in O(m s); recentring leaves the span, so Q and A do not change. A is
built as D^T D - V^T V, V = U^T D, a tile of b rows at a time (the
dense A is the one tile of s rows), and V^T V a chunk of rows at a time,
so a tile holds its own b x s array and one chunk's product.
_check_scale is the one rule for an order and a scale, in every module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    OrderZeroUnsupportedError,
    ScaleTooSmallError,
)


def _check_scale(m: int, s: int, least: int = 2) -> tuple[int, int]:
    """The order and the scale as ints: ValueError for one that is not an
    integer below 2^53 (an integral float is that integer) or an order
    below 0, ScaleTooSmallError for a scale below m + least."""
    for name, v in (("order", m), ("scale", s)):
        if not (abs(v) < 2 ** 53 and v == int(v)):  # NaN fails too
            raise ValueError(f"{name} {v} is not an integer below 2^53")
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    if s < m + least:
        raise ScaleTooSmallError(
            f"scale {s} too small for order {m}: need s >= m + {least}")
    return int(m), int(s)


def _int_scales(m: int, scales, least: int = 2) -> np.ndarray:
    """A 1-d scale grid as a new int array, each scale by _check_scale;
    its items are read as given, not as numpy would convert them (it
    makes [8, 2**63] float64)."""
    if np.ndim(scales) != 1:
        raise ValueError(f"scale grid must be 1-d, not {np.shape(scales)}")
    return np.array([_check_scale(m, s, least)[1] for s in scales], dtype=int)


@dataclass(frozen=True)
class WeightMatrix:
    """The kernel A = D^T (I - Q) D for one (order, scale) pair."""

    order: int
    scale: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def design_matrix(m: int, s: int) -> np.ndarray:
    """(m+1) x s matrix whose row k is (1^k, 2^k, ..., s^k), k = 0..m."""
    m, s = _check_scale(m, s)
    t = np.arange(1, s + 1, dtype=float)
    return t[None, :] ** np.arange(m + 1, dtype=float)[:, None]


def _orthonormal_rowspace(m: int, s: int) -> np.ndarray:
    """s x (m+1) matrix with orthonormal columns spanning the row space of B.

    Column k is the normalised Gram polynomial of degree k on x = t -
    (s+1)/2: u_0 = 1/sqrt(s), u_k = (x u_{k-1} - b_{k-1} u_{k-2}) / b_k
    with b_k = sqrt(k^2 (s^2 - k^2) / (4 (4k^2 - 1))).
    """
    m, s = _check_scale(m, s)
    x = np.arange(s, dtype=float) - (s - 1) / 2
    k2 = np.arange(m + 1.0) ** 2
    b = np.sqrt(k2 * (s * s - k2) / (4 * (4 * k2 - 1)))  # b_0 = 0
    # row k holds u_k; the last row stands for u_{-1} = 0
    u = np.zeros((m + 2, s))
    u[0] = 1 / np.sqrt(s)
    for k in range(1, m + 1):
        u[k] = (x * u[k - 1] - b[k - 1] * u[k - 2]) / b[k]
    return u[:-1].T


#: V^T V is formed in row chunks of about this many values
_CHUNK_VALUES = 2 ** 18


def _weight_rows(u: np.ndarray, width: int):
    """The rows of A = D^T D - V^T V from the s x (m+1) basis U, in tiles
    of ``width``: yields (rows, A[rows, :]), a fresh C-ordered array each.
    A is symmetric, so a tile is also the columns A[:, rows], transposed
    (to the bit up to s = 512, where V^T V is one chunk; to rounding
    above).

    V = U^T D holds the suffix sums of U, formed once, and
    (D^T D)_{ij} = min(s + 1 - i, s + 1 - j). V^T V is formed in chunks
    of max(1, _CHUNK_VALUES // s) rows that depend on s alone, not on
    the tile: a matrix product's rounding depends on its shape, and so
    the same chunk, always the same product, gives every entry of A to
    the bit whatever the width. A tile overlapping part of a chunk forms
    the whole chunk.
    """
    s = u.shape[0]
    r = np.arange(s, 0, -1, dtype=float)
    v = np.cumsum(u[::-1], axis=0)[::-1].T.copy()  # V, (m+1) x s
    chunk = max(1, min(s, _CHUNK_VALUES // s))
    for lo in range(0, s, width):
        hi = min(lo + width, s)
        a = np.minimum.outer(r[lo:hi], r)
        for q in range(lo - lo % chunk, hi, chunk):
            i0, i1 = max(q, lo), min(q + chunk, hi)
            a[i0 - lo:i1 - lo] -= (v[:, q:q + chunk].T @ v)[i0 - q:i1 - q]
        yield slice(lo, hi), a


def weight_matrix(m: int, s: int) -> WeightMatrix:
    """Construct A = D^T (I - Q) D, as one tile of _weight_rows."""
    m, s = _check_scale(m, s)
    u = _orthonormal_rowspace(m, s)
    return WeightMatrix(m, s, next(_weight_rows(u, s))[1])


def hat_matrix(m: int, s: int) -> np.ndarray:
    """Explicit s x s projection Q = B^T (B B^T)^{-1} B, for validation;
    apply_residual_projection never forms it."""
    u = _orthonormal_rowspace(m, s)
    return u @ u.T


def apply_residual_projection(m: int, window: np.ndarray) -> np.ndarray:
    """Residuals (I - Q) y of the order-m polynomial fit to a window."""
    y = np.asarray(window, dtype=float)
    u = _orthonormal_rowspace(m, y.shape[0])
    return y - u @ (u.T @ y)


def cumulative_sum_matrix(s: int) -> np.ndarray:
    """Lower-triangular all-ones matrix D: (D x) is the running sum of x."""
    return np.tril(np.ones((s, s)))


def profile(series: np.ndarray) -> np.ndarray:
    """Cumulative sum Y(t) = sum_{k<=t} X(k) of the input series."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be nonempty")
    return np.cumsum(x)


def residual_variance_direct(window_profile: np.ndarray, m: int) -> float:
    """Mean squared residual of an order-m fit to a windowed profile.

    A window of length exactly m+1 is interpolated perfectly and returns
    0; shorter windows are an error.
    """
    y = np.asarray(window_profile, dtype=float)
    s = y.shape[0]
    if s <= m:
        raise ScaleTooSmallError(f"window length {s} below m + 1 = {m + 1}")
    if s == m + 1:
        return 0.0
    r = apply_residual_projection(m, y)
    return float(r @ r) / s


def residual_variance_quadratic(window: np.ndarray, a: WeightMatrix) -> float:
    """Quadratic form x^T A x / s on the raw (un-summed) window."""
    x = np.asarray(window, dtype=float)
    if x.shape[0] != a.scale:
        raise DimensionMismatchError(
            f"window length {x.shape[0]} != weight-matrix scale {a.scale}"
        )
    return float(x @ a.entries @ x) / a.scale


def residual_variance_increment(window: np.ndarray, a: WeightMatrix) -> float:
    """Pairwise-difference form; requires m >= 1 (rows of A sum to zero)."""
    if a.order < 1:
        raise OrderZeroUnsupportedError(
            "increment form needs order >= 1; rows of A do not sum to 0 "
            "for plain mean detrending"
        )
    x = np.asarray(window, dtype=float)
    if x.shape[0] != a.scale:
        raise DimensionMismatchError(
            f"window length {x.shape[0]} != weight-matrix scale {a.scale}"
        )
    d2 = (x[:, None] - x[None, :]) ** 2
    return -float((a.entries * d2).sum()) / (2 * a.scale)
