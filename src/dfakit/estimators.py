"""Sample DFA and the gap-tolerant modified fluctuation functions.

Windowing is non-overlapping from the left; the tail of length
n mod s is discarded. One engine evaluates all three estimators:

* Gap-free input is detrended directly: F^2(s) is the mean over windows
  of |y - (y U) U^T|^2 / s, with y = cumsum(x_w) the window's profile
  and U an orthonormal basis of the order-m polynomials. All three
  estimators take this path on gap-free input, so they agree bit for
  bit there. Memory is O(n) per scale.
* Gapped input has its missing values zeroed. With Y and Delta the
  W x s windows of values and of availability, and B = p * A the pair
  weights of ``gap_weights`` times the weight matrix,

      f_tilde = <B, Y^T Y> / (sW),
      f_hat   = (<B, Y^T Y> - <B, (Y*Y)^T Delta>) / (sW),

  the window averages of the product kernel (1/s) sum B x_k x_j and of
  the pairwise-difference kernel -(1/2s) sum B (x_k - x_j)^2 over
  present pairs. Memory is O(s^2) per scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _orthonormal_rowspace, weight_matrix
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
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
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
class GapWeights:
    """Pair weights p_{k,j} = (# windows) / (# windows with both present)."""

    scale: int
    p: np.ndarray
    defined: np.ndarray
    n_windows: int

    def __post_init__(self):
        self.p.setflags(write=False)
        self.defined.setflags(write=False)


@dataclass(frozen=True)
class FluctuationCurve:
    """F(s) over a scale grid, with per-scale diagnostics.

    f2 retains raw (possibly negative) squared values; ``defined``
    flags the usable scales and ``reasons`` says why the others are
    not.
    """

    scales: np.ndarray
    f2: np.ndarray
    n_windows: np.ndarray
    estimator: str
    reasons: tuple[str | None, ...]

    def __post_init__(self):
        self.scales.setflags(write=False)
        self.f2.setflags(write=False)
        self.n_windows.setflags(write=False)

    @property
    def defined(self) -> np.ndarray:
        return np.array([r is None for r in self.reasons])

    @property
    def f(self) -> np.ndarray:
        out = np.full(self.f2.shape, np.nan)
        ok = self.defined
        out[ok] = np.sqrt(self.f2[ok])
        return out


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
    grid = np.unique(np.round(np.geomspace(lo, hi, count)).astype(int))
    return grid[(grid >= lo) & (grid <= hi)]


def _check_scales(n: int, m: int, scales: np.ndarray) -> None:
    if scales.size == 0:
        raise ValueError("empty scale grid")
    if int(scales.max()) > n:
        raise ScaleExceedsLengthError(
            f"scale {int(scales.max())} exceeds series length {n}"
        )


def _windows(x: np.ndarray, s: int) -> np.ndarray:
    """Left-anchored non-overlapping windows; the tail is discarded."""
    w = x.shape[0] // s
    return x[: w * s].reshape(w, s)


def dfa(series, m: int, scales) -> FluctuationCurve:
    """Standard DFA fluctuation curve on gap-free, finite data."""
    x = np.asarray(series, dtype=float)
    _check_finite(x)
    return _curve(x, None, m, scales, "standard")


def gap_weights(mask, s: int, count_empty_windows: bool = True) -> GapWeights:
    """Per-scale pair weights from the availability mask.

    The numerator counts all retained windows (optionally excluding
    windows with no present point at all); the denominator counts, per
    pair (k, j), the windows where both points are present. Pairs
    present in no window are marked undefined and get weight 0 — the
    availability factors already remove them from every sum.
    """
    mask = np.asarray(mask, dtype=bool)
    dw = _windows(mask, s).astype(float)
    if dw.shape[0] == 0:
        raise ScaleExceedsLengthError(f"scale {s} exceeds mask length")
    counts = np.einsum("wk,wj->kj", dw, dw)
    n_win = dw.shape[0]
    if not count_empty_windows:
        n_win = int(dw.any(axis=1).sum())
    defined = counts > 0
    if not defined.any():
        raise AllPairsMissingError(
            f"no pair is present in any window at scale {s}"
        )
    p = np.zeros((s, s))
    p[defined] = n_win / counts[defined]
    return GapWeights(scale=s, p=p, defined=defined, n_windows=n_win)


def _curve(x: np.ndarray, mask: np.ndarray | None, m: int, scales,
           estimator: str, count_empty_windows: bool = True
           ) -> FluctuationCurve:
    """The one engine behind dfa, f_hat and f_tilde; mask None is gap-free."""
    scales = np.asarray(scales, dtype=int)
    _check_scales(x.shape[0], m, scales)
    if mask is not None:
        x = np.where(mask, x, 0.0)
    f2 = np.full(scales.shape, np.nan)
    nw = np.zeros(scales.shape, dtype=int)
    reasons: list[str | None] = []
    for i, s in enumerate(scales):
        s = int(s)
        xw = _windows(x, s)
        nw[i] = xw.shape[0]
        if mask is None:
            if m >= 1:
                # a constant shift adds a ramp to the profile, which the
                # fit removes; shifting by a window value keeps the profile
                # small and makes a constant window give exactly zero
                xw = xw - xw[:, :1]
            y = np.cumsum(xw, axis=1)
            u = _orthonormal_rowspace(m, s)
            y -= (y @ u) @ u.T
            f2[i] = np.vdot(y, y) / y.size
        else:
            try:
                gw = gap_weights(mask, s, count_empty_windows)
            except AllPairsMissingError:
                reasons.append(NO_VALID_PAIRS)
                continue
            dw = _windows(mask, s).astype(float)
            pa = gw.p * weight_matrix(m, s).entries
            if estimator == "f_hat":
                # the pairwise form is invariant to a shift of each window;
                # centring on a present value stops the two terms below
                # from cancelling in floating point
                first = xw[np.arange(xw.shape[0]), dw.argmax(axis=1)]
                xw = (xw - first[:, None]) * dw
                gram = xw.T @ xw - (xw * xw).T @ dw
            else:
                gram = xw.T @ xw
            f2[i] = np.vdot(pa, gram) / xw.size
        reasons.append(NEGATIVE_SQUARED if f2[i] < 0 else None)
    return FluctuationCurve(scales=scales, f2=f2, n_windows=nw,
                            estimator=estimator, reasons=tuple(reasons))


def f_hat(gs: GappedSeries, m: int, scales,
          count_empty_windows: bool = True) -> FluctuationCurve:
    """Gap-tolerant fluctuation function built on the difference kernel.

    Unbiased (relative to gap-free DFA) for stationary and for
    stationary-increment input. Scales where the reweighted sum turns
    negative are flagged undefined; the raw value is kept in f2.

    Memory per scale is O(n) for gap-free input; with gaps it is
    O(s^2), and time O(n s).
    """
    if m < 1:
        raise OrderZeroUnsupportedError(
            "difference-kernel estimator needs order >= 1"
        )
    return _curve(gs.values, None if gs.gap_free else gs.mask, m, scales,
                  "f_hat", count_empty_windows)


def f_tilde(gs: GappedSeries, m: int, scales,
            count_empty_windows: bool = True) -> FluctuationCurve:
    """Gap-tolerant fluctuation function built on the product kernel.

    Unbiased for stationary input only; for stationary-increment
    (nonstationary) input the window-offset-dependent part no longer
    cancels and the estimator is biased.

    Memory per scale is O(n) for gap-free input; with gaps it is
    O(s^2), and time O(n s).
    """
    return _curve(gs.values, None if gs.gap_free else gs.mask, m, scales,
                  "f_tilde", count_empty_windows)


def estimate_hurst(curve: FluctuationCurve,
                   fit_range: tuple[int, int] | None = None) -> HurstFit:
    """Slope of log F(s) against log s over the defined scales in range."""
    if fit_range is None:
        s_min, s_max = int(curve.scales.min()), int(curve.scales.max())
    else:
        s_min, s_max = int(fit_range[0]), int(fit_range[1])
    # F^2 = 0 (a constant series) has no logarithm
    sel = (curve.defined & (curve.f2 > 0)
           & (curve.scales >= s_min) & (curve.scales <= s_max))
    if sel.sum() < 3:
        raise TooFewPointsError(
            f"need >= 3 defined scales with F^2 > 0 in [{s_min}, {s_max}], "
            f"have {int(sel.sum())}"
        )
    logs = np.log(curve.scales[sel].astype(float))
    logf = 0.5 * np.log(curve.f2[sel])
    slope, intercept = np.polyfit(logs, logf, 1)
    resid = logf - (slope * logs + intercept)
    return HurstFit(hurst=float(slope), intercept=float(intercept),
                    s_min=s_min, s_max=s_max, n_points=int(sel.sum()),
                    residual_std=float(resid.std(ddof=2) if sel.sum() > 2
                                       else 0.0))
