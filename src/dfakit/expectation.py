"""Exact expected squared fluctuation functions and finite-size bias.

The model object picks the engine of expected_curve:

* a model with an acvf (stationary):
      E F^2(s) = [gamma(0) G(0,s) + 2 sum_{j>=1} G(j,s) gamma(j)] / s
* a model with only a variogram (stationary increments, m >= 1):
      E F^2(s) = -(1/s) sum_{j>=1} G(j,s) S(j)

models.DerivedVariogram(model) asks for the second form on a stationary
model. Over a scale grid the lag function is evaluated once, at lags up
to the largest scale s_max, and each scale's sum reads a prefix of it:
one lag evaluation of length s_max plus O(sum s) for G and the dot
products, not O(sum s) lag evaluations. Nothing is kept between
calls; the CLI keeps its last curve for the process, so `bias` after
`expected` evaluates nothing.
expected_f2_general is the window-offset reference engine for a general
kernel gamma(t1, t2): E F^2(s) = (1/s) sum_{k,j} A_{k,j} gamma(t+k, t+j).

For scaling inputs E F^2(s) ~ lambda_{m,H} s^{2H}; the prefactor is a
rational-coefficient sum over the asymptotic weights, and the squared
correction K^2(s) = E F^2(s) / (lambda s^{2H}) quantifies the
finite-size bias.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .core import _check_scale, _int_scales, weight_matrix
from .exceptions import (
    NonFiniteValueError,
    NonpositiveCorrectionError,
    OrderZeroUnsupportedError,
)
from .models import FBM, FGN, WhiteNoise, check_hurst
from .weights import asymptotic_coefficients, weight_function


def expected_f2_general(acvf2, m: int, s: int, t: int = 0) -> float:
    """Window-offset-aware engine for a general kernel gamma(t1, t2).

    For stationary kernels this reduces to expected_curve's acvf sum;
    for stationary-increment kernels the value is independent of t.
    """
    m, s = _check_scale(m, s, least=1)
    if s == m + 1:
        return 0.0
    a = weight_matrix(m, s).entries
    idx = t + np.arange(1, s + 1)
    gam = np.asarray(acvf2(idx[:, None], idx[None, :]), dtype=float)
    return float((a * gam).sum()) / s


# an overflow raises NonFiniteValueError below; its warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def expected_curve(model, m: int, scales) -> np.ndarray:
    """E F^2 at each scale of a grid, as a read-only array of the grid's
    shape (S,), by the engine the model picks: its acvf at lags
    0..s_max-1 if it has one, else its variogram at lags 1..s_max-1
    (m >= 1), evaluated once out to the largest scale s_max.

    Every call evaluates its grid and keeps nothing: no curve, G or lag
    array (the CLI keeps its last curve for the process). An E F^2 that
    is not finite, or nonzero and subnormal (below the smallest normal
    float, where digits are lost), raises NonFiniteValueError.
    """
    scales = _int_scales(m, scales, least=1)
    stationary = hasattr(model, "acvf")
    if not stationary and m < 1 and scales.size:
        raise OrderZeroUnsupportedError("variogram engine needs order >= 1")
    ef2 = np.zeros(scales.size)  # s = m + 1 leaves no residual
    fitted = np.flatnonzero(scales != m + 1)
    if fitted.size:
        s_max = int(scales[fitted].max())
        lags = np.asarray(model.acvf(np.arange(s_max)) if stationary
                          else model.variogram(np.arange(1, s_max)),
                          dtype=float)
        for i in fitted:
            s = int(scales[i])
            g = weight_function(m, s)  # G(0..s-1, s), one scale at a time
            if stationary:
                ef2[i] = float(g[0] * lags[0] + 2.0 * (g[1:] @ lags[1:s])) / s
            else:
                ef2[i] = -float(g[1:] @ lags[:s - 1]) / s
            if not math.isfinite(ef2[i]):
                raise NonFiniteValueError(
                    f"E F^2 at scale {s} is not finite; rescale the model")
            # a subnormal E F^2 has lost digits; an exact 0 has not
            if 0 < abs(ef2[i]) < sys.float_info.min:
                raise NonFiniteValueError(
                    f"E F^2 at scale {s} is {ef2[i]:.4g}, below the smallest "
                    "normal float; rescale the model")
    ef2.setflags(write=False)
    return ef2


@lru_cache(maxsize=128, typed=True)
def asymptotic_lambda(m: int, hurst) -> float:
    """Scaling prefactor lambda_{m,H} in E F^2(s) ~ lambda s^{2H}, from
    the expansion coefficients.

    lambda = 2H(2H-1) sum_q d_q/(q+2H-1)   for stationary H != 1/2,
    lambda = d_0                           for white noise H = 1/2,
    lambda = -sum_q d_q/(q+2H-1)           for motions 1 < H < 2.

    Exact for every H, float or Fraction: with H = a/b,
    d_q/(q+2H-1) = b n_q / (D ((q-1) b + 2a)), D the lcm of the d_q's
    denominators and n_q = d_q D, so the sum is formed in integers and
    rounded once. (The d_q alternate in sign and cancel: a float sum of
    rounded terms was off by up to 5e-7 relative at m = 8.) Cached per
    (m, H); typed, so that Fraction(1, 2) and 0.5, which hash equal,
    keep their own entries.
    """
    if m < 1:
        raise ValueError("scaling constant needs order >= 1")
    hf = float(hurst)
    check_hurst(hf)
    d = asymptotic_coefficients(m)
    if hf == 0.5:
        value = float(d[0])
    else:
        a, b = hurst.as_integer_ratio()
        den = math.lcm(*(dq.denominator for dq in d))
        c = [(q - 1) * b + 2 * a for q in range(len(d))]
        prod = math.prod(c)
        # sum_q d_q / (q + 2H - 1) = b num / (den prod)
        num = sum(dq.numerator * (den // dq.denominator) * (prod // cq)
                  for dq, cq in zip(d, c))
        if hf < 1:  # 2H(2H-1) = 2a(2a-b)/b^2
            value = 2 * a * (2 * a - b) * num / (b * den * prod)
        else:
            value = -b * num / (den * prod)
    if value <= 0:
        raise NonpositiveCorrectionError(
            f"lambda_{{{m},{hf}}} came out nonpositive")
    return value


def scaling_model(hurst: float):
    """Unit-variance-increment reference model for a Hurst exponent."""
    check_hurst(hurst)
    if hurst == 0.5:
        return WhiteNoise()
    if hurst < 1.0:
        return FGN(hurst=hurst)
    return FBM(hurst=hurst)


def correction_function(m: int, hurst: float, s: int) -> float:
    """Squared finite-size correction K^2(s) = E F^2(s) / (lambda s^{2H}),
    with E F^2(s) the exact expectation of the unit-variance reference
    model of scaling_model(hurst)."""
    m, s = _check_scale(m, s)
    ef2 = expected_curve(scaling_model(hurst), m, [s])[0]
    lam = asymptotic_lambda(m, hurst)
    return float(ef2 / (lam * float(s) ** (2.0 * hurst)))


def modified_f2(f2: float, k2: float) -> float:
    """Bias-corrected squared fluctuation F^2 / K^2."""
    if not (math.isfinite(k2) and k2 > 0):
        raise NonpositiveCorrectionError(f"need a finite K^2 > 0, got {k2}")
    return f2 / k2
