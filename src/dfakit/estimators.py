"""Sample DFA and the gap-tolerant modified fluctuation functions.

Windowing is non-overlapping from the left; the tail of length
n mod s is discarded. One engine evaluates all three estimators on a
series, as ``dfa``, ``f_hat`` and ``f_tilde``, or on an (R, n) stack of
replicates that share one availability mask, as ``ensemble``. A curve is
its F^2 array, (S,) or (R, S): ``defined`` (F^2 >= 0) and ``reasons``
(NaN, no valid pairs; negative) are read off it.

The engine has one loop over replicates: it splits a stack into blocks
of max(1, _BLOCK_VALUES // n) replicates (_BLOCK_VALUES = 2^20), zeroes
a block's missing values and runs every scale on it, building once per
block the pieces that depend only on (m, s, mask): the basis U of
``core``, the availability windows Delta and the tiles of the kernel B.
Memory per scale is O(_BLOCK_VALUES + block n): f_hat at n = 16384
(s up to 4096) peaked at 25 MiB, where the dense B took 257 MiB.
Compute is not bounded: it stays O(R n s) per scale, so O(R n sum s)
over a grid, about 10^10 multiply-adds per pass at n = 10^5 on the
default grid and 10^12 at 10^6 (minutes on 2 CPUs).

* Gap-free input is detrended directly: F^2(s) is the mean over windows
  of |y - (y U) U^T|^2 / s, with y = cumsum(x_w) the window's profile
  and U an orthonormal basis of the order-m polynomials. The windows of
  a block go through one (R W, s) buffer, turned in place into
  profiles and then residuals by one projection. All three
  estimators take this path on gap-free input, so they agree bit for
  bit there.
* Gapped input has its missing values zeroed. With y and delta a
  window's values and availability,

      f_hat   = sum_w (y^T B y - (y*y) . (B delta)) / (sW),
      f_tilde = sum_w y^T B y / (sW) = f_hat + sum_w (y*y) . (B delta) / (sW),

  the window averages of the pairwise-difference kernel
  -(1/2s) sum B (x_k - x_j)^2 over present pairs and of the product
  kernel (1/s) sum B x_k x_j: f_tilde is f_hat plus one diagonal term.
  f_hat is invariant to a shift of a window, so it is formed on each
  window centred on its first present value c, y_c = (y - c) delta;
  the diagonal term is that of the uncentred y. One (R W, s) x (s, s)
  product Y_c B per scale serves both estimators, whose sums are always
  formed together; the two diagonal terms cost O(R W s). An all-missing
  window has y = 0 and delta = 0 and adds exactly 0. B, the pair
  weights p * A of ``gap_weights``
  (p = W / pair counts, W counting all-missing windows too), is never
  held whole: it is built and applied in tiles of
  b = max(1, _BLOCK_VALUES // s) rows, which, B being symmetric, are
  its columns J transposed. Each tile B[J, :] =
  A[J, :] W / max(counts[J, :], 1) is formed in one loop over the row
  tiles A[J, :] of core._weight_rows, from the pair counts
  (Delta^T Delta)[J, :], and applied to the block's centred windows,
  formed once per scale; the tiles add up the quadratic form and the
  two diagonal terms, each read off Delta B. Below s = 1024 a tile is the
  whole of B; above, no scale holds an s x s array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (_check_scale, _int_scales, _orthonormal_rowspace,
                   _weight_rows)
from .exceptions import (
    AllPairsMissingError,
    NonFiniteValueError,
    OrderZeroUnsupportedError,
    ScaleExceedsLengthError,
    TooFewPointsError,
)

#: reasons a scale can be undefined in a FluctuationCurve
NEGATIVE_SQUARED = "negative-squared-value"
NO_VALID_PAIRS = "no-valid-pairs"

#: replicates go through the engine in blocks of about this many values
_BLOCK_VALUES = 2 ** 20


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteValueError("present values must be finite")


@dataclass(frozen=True)
class GappedSeries:
    """Regularly sampled values with a per-point availability mask.

    A NaN or inf at a present point raises NonFiniteValueError.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        values = np.array(self.values, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 1:
            raise ValueError("values and mask must be 1-d and equally long")
        if not mask.any():
            raise ValueError("at least one value must be present")
        _check_finite(values[mask])
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        values.setflags(write=False)
        mask.setflags(write=False)

    @classmethod
    def from_values(cls, values) -> "GappedSeries":
        """Treat NaN entries as missing."""
        values = np.asarray(values, dtype=float)
        return cls(values=values, mask=~np.isnan(values))

    @property
    def gap_free(self) -> bool:
        return bool(self.mask.all())


@dataclass(frozen=True)
class FluctuationCurve:
    """F(s) over a scale grid, of a series (f2 (S,)) or of each row of a
    stack ((R, S)), with per-scale diagnostics.

    f2 retains raw (possibly negative) squared values, NaN where no
    window holds a present pair; ``defined`` flags the usable scales and
    ``reasons`` says why the others are not.
    """

    scales: np.ndarray
    f2: np.ndarray
    n_windows: np.ndarray
    estimator: str

    def __post_init__(self):
        self.scales.setflags(write=False)
        self.f2.setflags(write=False)
        self.n_windows.setflags(write=False)

    @property
    def defined(self) -> np.ndarray:
        """F^2 >= 0, so False at NaN."""
        return self.f2 >= 0

    @property
    def reasons(self) -> tuple:
        """Why each scale is undefined (None if it is not); a tuple per row
        of a stack."""
        codes = np.where(np.isnan(self.f2), NO_VALID_PAIRS,
                         np.where(self.f2 < 0, NEGATIVE_SQUARED, None))
        return tuple(map(tuple, codes)) if codes.ndim == 2 else tuple(codes)

    @property
    def f(self) -> np.ndarray:
        return np.where(self.defined, np.sqrt(np.abs(self.f2)), np.nan)


@dataclass(frozen=True)
class HurstFit:
    """OLS fit of log F(s) against log s."""

    hurst: float
    intercept: float
    s_min: int
    s_max: int
    n_points: int
    residual_std: float


def default_scale_grid(n: int, m: int, count: int = 30) -> np.ndarray:
    """About ``count`` log-spaced integer scales in [m+2, n//4]."""
    lo = m + 2
    if lo > n:
        raise ScaleExceedsLengthError(
            f"series of length {n} cannot hold the minimum scale {lo}"
        )
    hi = max(n // 4, lo)
    # geomspace ends at lo and hi exactly and rounds to a nondecreasing grid
    grid = np.round(np.geomspace(lo, hi, count)).astype(int)
    return grid[np.diff(grid, prepend=lo - 1) > 0]


def _windows(x: np.ndarray, s: int) -> np.ndarray:
    """Left-anchored non-overlapping windows along the last axis,
    (..., n) to (..., W, s); the tail is discarded."""
    w = x.shape[-1] // s
    return x[..., : w * s].reshape(*x.shape[:-1], w, s)


def dfa(series, m: int, scales) -> FluctuationCurve:
    """Standard DFA fluctuation curve on gap-free, finite data."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-d")
    _check_finite(x)
    return _curve(x, None, m, scales, ("standard",))["standard"]


def gap_weights(mask, s: int) -> np.ndarray:
    """Per-scale pair weights from the availability mask, as a read-only
    (s, s) array p.

    p_{k,j} = W / (windows where k and j are both present), where
    W = len(mask) // s counts all-missing windows too, as the estimators'
    1/(sW) does. Pairs present in no window get weight 0 (p > 0 marks the
    pairs present together somewhere) — the availability factors already
    remove them from every sum.
    """
    s = _check_scale(0, s, least=1)[1]
    dw = _windows(np.asarray(mask, dtype=bool), s).astype(float)
    if dw.shape[0] == 0:
        raise ScaleExceedsLengthError(f"scale {s} exceeds mask length")
    if not dw.any():
        raise AllPairsMissingError(
            f"no pair is present in any window at scale {s}"
        )
    counts = dw.T @ dw
    p = np.divide(dw.shape[0], counts, out=np.zeros((s, s)),
                  where=counts > 0)
    p.setflags(write=False)
    return p


# an F^2 that overflows raises NonFiniteValueError, so its warnings say
# nothing more
@np.errstate(over="ignore", invalid="ignore")
def _curve(x: np.ndarray, mask: np.ndarray | None, m: int, scales,
           estimators: tuple[str, ...]) -> dict[str, FluctuationCurve]:
    """The one engine behind dfa, f_hat, f_tilde and ensemble.

    x is a finite series (n,) or an (R, n) stack of finite replicates
    sharing one mask; mask None is gap-free. Returns, per estimator, one
    curve with f2 of shape (S,) or (R, S), NaN where no pair is present.
    Only here is a stack split into blocks; the kernels see one block.
    """
    if "f_hat" in estimators and m < 1:
        raise OrderZeroUnsupportedError(
            "difference-kernel estimator needs order >= 1"
        )
    scales = _int_scales(m, scales)  # a copy: the curve freezes it
    stack = np.atleast_2d(x)
    reps, n = stack.shape
    if scales.size == 0:
        raise ValueError("empty scale grid")
    if scales.max() > n:
        raise ScaleExceedsLengthError(
            f"scale {scales.max()} exceeds series length {n}")
    gap_free = mask is None or bool(mask.all())
    f2 = {e: np.full((reps, scales.size), np.nan) for e in estimators}
    block = max(1, _BLOCK_VALUES // n)
    for lo in range(0, reps, block):
        rows = slice(lo, lo + block)
        xb = stack[rows]
        xz = None if gap_free else np.where(mask, xb, 0.0)
        for i, s in enumerate(scales.tolist()):
            u = _orthonormal_rowspace(m, s)
            if gap_free:
                sums = dict.fromkeys(estimators, _residual_sums(xb, u))
            else:
                sums = _gapped_sums(xz, mask, u) or {}
                if "standard" in estimators:
                    sums["standard"] = _residual_sums(xb, u)
            # only a value too large to square overflows; NaN is left to
            # mean that no window holds a present pair
            for e in estimators:
                if e in sums:
                    f2[e][rows, i] = sums[e] / ((n // s) * s)
                    if not np.isfinite(f2[e][rows, i]).all():
                        raise NonFiniteValueError(f"F^2 at scale {s} is not "
                                                  "finite; rescale the series")
    nw = n // scales
    return {e: FluctuationCurve(scales=scales, f2=v if x.ndim == 2 else v[0],
                                n_windows=nw, estimator=e)
            for e, v in f2.items()}


def _residual_sums(stack: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per replicate of the block (R, n), the sum over windows of the
    squared residuals of the detrended profiles, at the scale of the
    basis u."""
    s, m = u.shape[0], u.shape[1] - 1
    xw = _windows(stack, s)
    # one buffer, detrended in place: the windows, their profiles and the
    # residuals
    # a constant shift adds a ramp to the profile, which the fit removes;
    # shifting by a window value keeps the profile small and makes a
    # constant window give exactly zero
    y = (xw - xw[..., :1] if m >= 1 else xw.copy()).reshape(-1, s)
    np.cumsum(y, axis=1, out=y)
    y -= (y @ u) @ u.T
    return _row_dot(y, y, xw.shape[0])


def _gapped_sums(xz: np.ndarray, mask: np.ndarray,
                 u: np.ndarray) -> dict | None:
    """Per replicate of the zero-filled block xz (R, n), the window sums
    of f_hat and f_tilde at the scale of u (F^2 times s W), or None when
    no window holds a present pair.

    f_hat is the quadratic form of the centred windows less their
    diagonal term; f_tilde adds the diagonal term of the uncentred ones.
    B is walked in row tiles of A from core._weight_rows, of
    max(1, _BLOCK_VALUES // s) rows, each built with its pair counts
    (Delta^T Delta)[cols, :] and applied to the whole block.
    """
    reps, s = xz.shape[0], u.shape[0]
    dw = _windows(mask, s).astype(float)  # Delta (W x s)
    if not dw.any():
        return None
    nw = dw.shape[0]
    xw = _windows(xz, s)
    shift = xw[:, np.arange(nw), dw.argmax(axis=1)]
    # the pairwise form is invariant to a shift of each window; centring
    # on a present value stops its two terms from cancelling in floating
    # point. Formed once, never per tile: a fresh array per tile gave 5x
    # the page faults of f_hat at n = 10^5
    yc = xw - shift[..., None]
    yc *= dw
    quad, corr, raw = np.zeros(reps), np.zeros(reps), np.zeros(reps)
    for cols, b in _weight_rows(u, max(1, _BLOCK_VALUES // s)):
        # B[cols, :] = A[cols, :] W / max(counts, 1), in place. A pair
        # with count 0 is never present together: B gives the sums of
        # p * A. B is symmetric, so b.T is the columns B[:, cols].
        counts = dw[:, cols].T @ dw
        np.maximum(counts, 1.0, out=counts)
        b *= np.divide(nw, counts, out=counts)
        del counts
        b = b.T
        # row w of Delta B[:, cols] is (B delta_w)[cols]
        dbw = dw @ b
        part = yc[..., cols]
        # the one (R W, s) x (s, b) product of the tile
        quad += _row_dot(yc.reshape(-1, s) @ b, part, reps)
        corr += (part * part).reshape(reps, -1) @ dbw.ravel()
        part = xw[..., cols]
        raw += (part * part).reshape(reps, -1) @ dbw.ravel()
    return {"f_hat": quad - corr, "f_tilde": quad - corr + raw}


def _row_dot(a: np.ndarray, b: np.ndarray, reps: int) -> np.ndarray:
    """Per replicate, the dot product of its rows of a and b."""
    return np.einsum("ij,ij->i", a.reshape(reps, -1), b.reshape(reps, -1))


def f_hat(gs: GappedSeries, m: int, scales) -> FluctuationCurve:
    """Gap-tolerant fluctuation function built on the difference kernel.

    Unbiased (relative to gap-free DFA) for stationary and for
    stationary-increment input at scales where every pair (k, j) is
    present together in some window. Scales where the reweighted sum
    turns negative are flagged undefined; the raw value is kept in f2.

    Memory per scale is O(n) for gap-free input; with gaps it is
    O(n + _BLOCK_VALUES), B being walked in tiles (see the module
    docstring), and time O(n s).
    """
    return _curve(gs.values, gs.mask, m, scales, ("f_hat",))["f_hat"]


def f_tilde(gs: GappedSeries, m: int, scales) -> FluctuationCurve:
    """Gap-tolerant fluctuation function built on the product kernel.

    Unbiased for stationary input only, at scales where every pair is
    present together in some window; for stationary-increment
    (nonstationary) input the window-offset-dependent part no longer
    cancels and the estimator is biased.

    Memory per scale is O(n) for gap-free input; with gaps it is
    O(n + _BLOCK_VALUES), as for f_hat, and time O(n s).

    Precision: the window offsets c enter only through the diagonal term
    (y*y) . (B delta) of the uncentred windows added to f_hat, whose
    entries grow as c^2 and, for an offset large against the spread,
    cancel. Relative error against extended precision (unit noises and
    walks, n = 300, m = 1..3, 300 seeds, 10-40% of points missing at
    random, scales 5..50), median / 99th percentile / maximum:

        offset 55.5   5.5e-15 / 7.8e-13 / 1.9e-10
        offset 10^3   9.6e-14 / 1.6e-11 / 1.8e-9
        offset 10^5   1.0e-11 / 1.5e-9  / 2.9e-7

    (f_hat, at each offset: 1.8e-16 / 1e-15 / 3e-14).
    """
    return _curve(gs.values, gs.mask, m, scales, ("f_tilde",))["f_tilde"]


def ensemble(samples, mask, m: int, scales) -> dict[str, FluctuationCurve]:
    """Curves of every replicate in an (R, n) stack sharing one mask.

    Returns one curve with an (R, S) f2 under "standard" (``dfa`` of the
    full samples) and, when a mask is given, under "f_hat" and
    "f_tilde" (of the samples with the mask applied). Row r equals the
    curve the per-replicate call gives; the (m, s, mask) pieces of a
    scale are built once per block: the whole stack up to 2^20 values.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or not len(x):
        raise ValueError("samples must be an (R, n) stack with R >= 1")
    _check_finite(x)
    if mask is None:
        return _curve(x, None, m, scales, ("standard",))
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[1:]:
        raise ValueError("mask must be as long as each replicate")
    if not mask.any():
        raise ValueError("at least one value must be present")
    return _curve(x, mask, m, scales, ("standard", "f_hat", "f_tilde"))


def _hurst_fits(scales: np.ndarray, f2: np.ndarray, s_min, s_max):
    """OLS fits of log F against log s in one masked pass over the rows of
    f2 (R, S), each over its scales with F^2 > 0 (so defined) in
    [s_min, s_max] (scalars or one per row). Returns the selection, whether
    each row could be fitted (>= 3 scales, not all equal) and, per row,
    the slope, intercept and residual std, NaN where it could not."""
    sel = ((f2 > 0)  # F^2 = 0 (a constant series) has no log
           & (scales >= np.asarray(s_min)[..., None])
           & (scales <= np.asarray(s_max)[..., None]))
    k = sel.sum(1)
    per = np.maximum(k, 1)[:, None]  # no 0 / 0 in a row with no scale
    # log s as offsets from the largest selected one (all are >= 0): equal
    # scales then give dx = 0 exactly, where their mean need not round
    logs = np.log(scales.astype(float))
    x0 = np.where(sel, logs, 0.0).max(1, initial=0.0)[:, None]
    xy = np.where(sel, [logs - x0, 0.5 * np.log(np.where(sel, f2, 1.0))], 0.0)
    means = xy.sum(2, keepdims=True) / per
    dx, dy = np.where(sel, xy - means, 0.0)
    sxx = (dx * dx).sum(1)
    ok = (k >= 3) & (sxx > 0)
    fits = np.full((3, len(f2)), np.nan)
    slope = np.divide((dx * dy).sum(1), sxx, out=fits[0], where=ok)[:, None]
    fits[1] = (means[1] - slope * (x0 + means[0]))[:, 0]
    resid = dy - slope * dx
    resid = np.where(sel, resid - resid.sum(1, keepdims=True) / per, 0.0)
    np.divide((resid * resid).sum(1), k - 2, out=fits[2], where=ok)
    return sel, ok, fits[0], fits[1], np.sqrt(fits[2])


def estimate_hurst(curve: FluctuationCurve,
                   fit_range: tuple[int, int] | None = None) -> HurstFit:
    """Slope of log F(s) against log s over the defined scales in range."""
    if curve.f2.ndim != 1:
        raise ValueError("estimate_hurst fits one series, not a stack")
    if fit_range is None:
        s_min, s_max = int(curve.scales.min()), int(curve.scales.max())
    else:
        s_min, s_max = int(fit_range[0]), int(fit_range[1])
    sel, ok, slope, intercept, resid_std = _hurst_fits(
        curve.scales, curve.f2[None], s_min, s_max)
    n_points = int(sel.sum())
    if not ok[0]:
        raise TooFewPointsError(
            f"need >= 3 defined scales, not all equal, with F^2 > 0 in "
            f"[{s_min}, {s_max}], have {n_points}")
    return HurstFit(hurst=float(slope[0]), intercept=float(intercept[0]),
                    s_min=s_min, s_max=s_max, n_points=n_points,
                    residual_std=float(resid_std[0]))
