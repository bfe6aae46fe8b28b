"""Independent reference computations used to check dfakit's outputs.

Nothing here imports dfakit. Each function is written from the
definitions in the paper, in a form that differs from the package's own
code path, so a check passes only when the two agree to floating-point
tolerance, not bit for bit.
"""

from __future__ import annotations

from math import exp, lgamma

import numpy as np


def scale_grid(n: int, m: int, count: int = 30) -> np.ndarray:
    """About ``count`` log-spaced integer scales in [m+2, n//4]."""
    lo, hi = m + 2, max(n // 4, m + 2)
    grid = np.unique(np.round(np.geomspace(lo, hi, count)).astype(int))
    return grid[(grid >= lo) & (grid <= hi)]


def _poly_basis(m: int, s: int) -> np.ndarray:
    """s x (m+1) orthonormal basis of polynomials of degree <= m on 1..s."""
    t = np.arange(s, dtype=float)
    t = (t - t.mean()) / (0.5 * s)
    q, _ = np.linalg.qr(np.vander(t, m + 1, increasing=True))
    return q


def dfa_f2(x: np.ndarray, m: int, s: int) -> float:
    """Mean squared residual of per-window least-squares fits to the profile."""
    y = np.cumsum(x)
    w = y.shape[0] // s
    yw = y[: w * s].reshape(w, s)
    q = _poly_basis(m, s)
    r = yw - (yw @ q) @ q.T
    return float(np.einsum("ij,ij->", r, r)) / (w * s)


def weight_matrix(m: int, s: int) -> np.ndarray:
    """A = D^T (I - Q) D, with D the running-sum matrix.

    Uses (D^T D)_{ij} = s + 1 - max(i, j), so the cost is O(m s^2).
    """
    i = np.arange(1, s + 1)
    v = _poly_basis(m, s).T @ np.tril(np.ones((s, s)))
    return (s + 1 - np.maximum.outer(i, i)) - v.T @ v


def gap_f2(x: np.ndarray, present: np.ndarray, m: int, s: int,
           kernel: str) -> float:
    """Pair-reweighted F^2 at one scale, in matrix-product form.

    With y = x on present points and 0 in gaps, delta the availability
    and P the pair weights (windows / windows with both points present),
    the difference kernel is (sum_w y'(P*A)y - sum_w (delta x^2)'(P*A)delta)
    / (s W) and the product kernel is sum_w y'(P*A)y / (s W).
    """
    w = x.shape[0] // s
    dw = present[: w * s].reshape(w, s).astype(float)
    yw = np.where(present, x, 0.0)[: w * s].reshape(w, s)
    counts = dw.T @ dw
    p = np.divide(w, counts, out=np.zeros_like(counts), where=counts > 0)
    pa = p * weight_matrix(m, s)
    total = np.einsum("wk,kj,wj->", yw, pa, yw)
    if kernel == "difference":
        total -= np.einsum("wk,kj,wj->", yw * yw, pa, dw)
    return float(total) / (s * w)


def fully_covered(present: np.ndarray, s: int) -> bool:
    """True when every pair (k, j) of a window is present in some window."""
    w = present.shape[0] // s
    dw = present[: w * s].reshape(w, s).astype(float)
    return bool(((dw.T @ dw) > 0).all())


def weights_g(m: int, s: int) -> np.ndarray:
    """G(j, s), j = 0..s-1: closed rational form for m <= 2, else diagonal
    sums of the explicit weight matrix (use only for small s)."""
    j = np.arange(s, dtype=float)
    sf = float(s)
    cubic = (j - sf - 1.0) * (j - sf) * (j - sf + 1.0)
    if m == 1:
        return cubic * (3 * j * j + 9 * j * sf - 2 * sf * sf + 8) / (
            30 * sf * (sf * sf - 1))
    if m == 2:
        quartic = (((10 * j + 30 * sf) * j + 2 * (9 * sf * sf + 19)) * j
                   + 2 * sf * (67 - 13 * sf * sf)) * j
        quartic += 3 * (sf ** 4 - 13 * sf * sf + 36)
        return -cubic * quartic / (70 * sf * (sf ** 4 - 5 * sf * sf + 4))
    lag = np.subtract.outer(np.arange(s), np.arange(s))  # column - row
    upper = lag >= 0
    return np.bincount(lag[upper], weights=weight_matrix(m, s)[upper],
                       minlength=s)


def expected_f2(kind: str, hurst: float, m: int, s: int) -> tuple[float, float]:
    """Exact E F^2(s) for unit-variance fGn (H < 1) or fBm (1 < H < 2).

    Returns the value and the sum of the magnitudes of its terms, which
    bounds the rounding error of any evaluation of the same sum.
    """
    g = weights_g(m, s)
    if kind == "fgn":
        t = np.arange(s, dtype=float)
        h2 = 2.0 * hurst
        up, mid, down = (t + 1) ** h2, t ** h2, np.abs(t - 1) ** h2
        gamma = 0.5 * (up - 2 * mid + down)
        value = g[0] * gamma[0] + 2.0 * (g[1:] @ gamma[1:])
        size = abs(g[0]) * gamma[0] + (np.abs(g[1:]) @ (up + 2 * mid + down)[1:])
    else:
        sv = np.arange(1, s, dtype=float) ** (2.0 * (hurst - 1.0))
        value = -(g[1:] @ sv)
        size = np.abs(g[1:]) @ sv
    return float(value) / s, float(size) / s


def hurst_slope(scales: np.ndarray, f2: np.ndarray) -> float:
    """Least-squares slope of log F against log s."""
    ls = np.log(scales.astype(float))
    lf = 0.5 * np.log(f2)
    ls0 = ls - ls.mean()
    return float(ls0 @ (lf - lf.mean()) / (ls0 @ ls0))


def t_threshold(dof: int, p: float) -> float:
    """Two-sided Student-t critical value: P(|T_dof| > t) = p.

    Uses P(|T| > t) = I_x(dof/2, 1/2) with x = dof / (dof + t^2) and
    integrates the beta density numerically; bisects on t.
    """
    a = dof / 2.0
    log_beta = lgamma(a) + lgamma(0.5) - lgamma(a + 0.5)

    def tail(t: float) -> float:
        x0 = dof / (dof + t * t)
        u = np.linspace(0.0, x0, 4001)
        dens = u ** (a - 1.0) * (1.0 - u) ** -0.5
        return float(np.trapezoid(dens, u)) * exp(-log_beta)

    lo, hi = 0.0, 1e4
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail(mid) > p else (lo, mid)
    return hi
