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
differences. The abscissae are never recentered; entry-level checks of
the weight tables rely on this exact convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    OrderZeroUnsupportedError,
    ScaleTooSmallError,
    SingularGramError,
)


def _check_scale(m: int, s: int) -> None:
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    if s < m + 2:
        raise ScaleTooSmallError(
            f"scale {s} too small for order {m}: need s >= m + 2"
        )


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
    _check_scale(m, s)
    t = np.arange(1, s + 1, dtype=float)
    return t[None, :] ** np.arange(m + 1, dtype=float)[:, None]


def _orthonormal_rowspace(m: int, s: int) -> np.ndarray:
    """s x (m+1) matrix with orthonormal columns spanning the row space of B.

    Uses a QR decomposition of B^T instead of inverting B B^T; the
    Vandermonde Gram becomes badly conditioned for large m and s.
    """
    bt = design_matrix(m, s).T
    bt = bt / np.linalg.norm(bt, axis=0)  # column scaling only
    q, r = np.linalg.qr(bt)
    if np.any(np.abs(np.diag(r)) < 1e-10):
        raise SingularGramError(
            f"design matrix rank-deficient in float64 for m={m}, s={s}"
        )
    return q


def _projected_cumsum_rows(m: int, s: int) -> np.ndarray:
    """(m+1) x s matrix U^T D, built from suffix sums of the basis U."""
    u = _orthonormal_rowspace(m, s)
    return np.cumsum(u[::-1], axis=0)[::-1].T


def hat_matrix(m: int, s: int) -> np.ndarray:
    """Explicit s x s projection Q = B^T (B B^T)^{-1} B.

    Exposed for validation; residuals should be computed through
    apply_residual_projection, which never forms this matrix.
    """
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


def weight_matrix(m: int, s: int) -> WeightMatrix:
    """Construct A = D^T (I - Q) D.

    Computed as D^T D - V^T V with V = U^T D, where U holds an
    orthonormal basis of the row space of B. D^T D has the closed form
    (D^T D)_{ij} = s + 1 - max(i, j).
    """
    _check_scale(m, s)
    idx = np.arange(1, s + 1)
    dtd = (s + 1 - np.maximum.outer(idx, idx)).astype(float)
    v = _projected_cumsum_rows(m, s)
    return WeightMatrix(order=m, scale=s, entries=dtd - v.T @ v)


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
