"""Exact expected squared fluctuation functions and finite-size bias.

Three interchangeable engines:

* stationary:   E F^2(s) = [gamma(0) G(0,s) + 2 sum_j G(j,s) gamma(j)] / s
* increments:   E F^2(s) = -(1/s) sum_{j>=1} G(j,s) S(j)
* general:      E F^2(s) = (1/s) sum_{k,j} A_{k,j} gamma(t+k, t+j)

For scaling inputs E F^2(s) ~ lambda_{m,H} s^{2H}; the prefactor is a
rational-coefficient sum over the asymptotic weights, and the squared
correction K^2(s) = E F^2(s) / (lambda s^{2H}) quantifies the
finite-size bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import weight_matrix
from .exceptions import (
    NonpositiveCorrectionError,
    OrderZeroUnsupportedError,
    ScaleTooSmallError,
)
from .models import (
    FBM,
    FGN,
    AcvfModel,
    VariogramModel,
    WhiteNoise,
    check_hurst,
)
from .weights import asymptotic_coefficients, weight_function


@dataclass(frozen=True)
class ScalingConstant:
    """Prefactor lambda in E F^2(s) ~ lambda s^{2H}."""

    hurst: float
    value: float


@dataclass(frozen=True)
class ExpectedCurve:
    scales: np.ndarray
    ef2: np.ndarray

    def __post_init__(self):
        self.scales.setflags(write=False)
        self.ef2.setflags(write=False)


def expected_f2_stationary(model: AcvfModel, m: int, s: int) -> float:
    """Expected squared fluctuation of a stationary process at scale s."""
    if s == m + 1:
        return 0.0
    g = weight_function(m, s)
    gamma = np.asarray(model.acvf(np.arange(s)), dtype=float)
    return float(g[0] * gamma[0] + 2.0 * (g[1:] @ gamma[1:])) / s


def expected_f2_increments(model: VariogramModel, m: int, s: int) -> float:
    """Expected squared fluctuation from a variogram; needs m >= 1."""
    if m < 1:
        raise OrderZeroUnsupportedError("variogram engine needs order >= 1")
    if s == m + 1:
        return 0.0
    g = weight_function(m, s)
    sv = np.asarray(model.variogram(np.arange(1, s)), dtype=float)
    return -float(g[1:] @ sv) / s


def expected_f2_general(acvf2, m: int, s: int, t: int = 0) -> float:
    """Window-offset-aware engine for a general kernel gamma(t1, t2).

    For stationary kernels this reduces to the stationary engine; for
    stationary-increment kernels the value is independent of t.
    """
    if s == m + 1:
        return 0.0
    a = weight_matrix(m, s).entries
    idx = t + np.arange(1, s + 1)
    gam = np.asarray(acvf2(idx[:, None], idx[None, :]), dtype=float)
    return float((a * gam).sum()) / s


def expected_f2(model, m: int, s: int) -> float:
    """E F^2(s) from the model's acvf if it has one, else its variogram."""
    if hasattr(model, "acvf"):
        return expected_f2_stationary(model, m, s)
    return expected_f2_increments(model, m, s)


def expected_curve(model, m: int, scales) -> ExpectedCurve:
    """Evaluate the appropriate engine over a scale grid."""
    scales = np.asarray(scales, dtype=int)
    ef2 = np.array([expected_f2(model, m, int(s)) for s in scales])
    return ExpectedCurve(scales=scales, ef2=ef2)


@lru_cache(maxsize=128, typed=True)
def asymptotic_lambda(m: int, hurst) -> ScalingConstant:
    """Scaling prefactor lambda_{m,H} from the expansion coefficients.

    lambda = 2H(2H-1) sum_q d_q/(q+2H-1)   for stationary H != 1/2,
    lambda = d_0                           for white noise H = 1/2,
    lambda = -sum_q d_q/(q+2H-1)           for motions 1 < H < 2.

    Accepts a Fraction for an exact rational evaluation; the d_q
    alternate in sign and partially cancel, so the float path uses
    compensated summation. Cached per (m, H); typed, so that
    Fraction(1, 2) and 0.5, which hash equal, keep their own paths.
    """
    if m < 1:
        raise ValueError("scaling constant needs order >= 1")
    hf = float(hurst)
    check_hurst(hf)
    d = asymptotic_coefficients(m).d
    exact = isinstance(hurst, Fraction)
    if hf == 0.5:
        lam = d[0] if exact else float(d[0])
    elif exact:
        total = sum((dq / (q + 2 * hurst - 1) for q, dq in enumerate(d)),
                    Fraction(0))
        lam = (2 * hurst * (2 * hurst - 1) * total if hurst < 1 else -total)
    else:
        total = math.fsum(float(dq) / (q + 2.0 * hf - 1.0)
                          for q, dq in enumerate(d))
        lam = 2 * hf * (2 * hf - 1) * total if hf < 1 else -total
    value = float(lam)
    if value <= 0:
        raise NonpositiveCorrectionError(
            f"lambda_{{{m},{hf}}} came out nonpositive")
    return ScalingConstant(hurst=hf, value=value)


def scaling_model(hurst: float):
    """Unit-variance-increment reference model for a Hurst exponent."""
    check_hurst(hurst)
    if hurst == 0.5:
        return WhiteNoise()
    if hurst < 1.0:
        return FGN(hurst=hurst)
    return FBM(hurst=hurst)


def expected_f2_scaling(m: int, hurst: float, s: int) -> float:
    """E F^2(s) for the reference scaling process with exponent H."""
    return expected_f2(scaling_model(hurst), m, s)


def correction_function(m: int, hurst: float, s: int) -> float:
    """Squared finite-size correction K^2(s) = E F^2(s) / (lambda s^{2H}),
    with E F^2(s) the exact expectation of the unit-variance reference
    model of scaling_model(hurst)."""
    if s < m + 2:
        raise ScaleTooSmallError(f"scale {s} too small for order {m}")
    lam = asymptotic_lambda(m, hurst).value
    return expected_f2_scaling(m, hurst, s) / (lam * float(s) ** (2.0 * hurst))


def modified_f2(f2: float, k2: float) -> float:
    """Bias-corrected squared fluctuation F^2 / K^2."""
    if k2 <= 0:
        raise NonpositiveCorrectionError(f"K^2 must be > 0, got {k2}")
    return f2 / k2
