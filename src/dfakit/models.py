"""Second-order correlation structures of the supported input processes.

A process is named by one model object. Stationary processes are
described by an autocovariance model (white noise, fractional Gaussian
noise, Ornstein-Uhlenbeck / AR(1), or an explicit table), whose acvf
method holds the formula; stationary-increment nonstationary processes
by a variogram model (fractional Brownian motion or a table), whose
variogram method does. Parameters are checked once, when the model is
built. Lags are integers throughout: everything downstream works on
regularly sampled series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from .exceptions import InsufficientLagsError, ModelSpecError


def check_hurst(h: float, lo: float = 0.0, hi: float = 2.0) -> None:
    """Raise ValueError unless lo < h < hi and h != 1: (0, 1) for a
    noise, (1, 2) for a motion, either of the two by default."""
    if not (lo < h < hi and h != 1.0):
        span = ("(0, 1) or (1, 2)" if lo < 1.0 < hi
                else f"({lo:g}, {hi:g})")
        raise ValueError(f"Hurst exponent must lie in {span}, got {h}")


def _check_positive(**params: float) -> None:
    """Raise ValueError unless every parameter is finite and > 0."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value <= 0:
            raise ValueError(f"{name} must be > 0")


def fgn_acvf_asymptotic(hurst: float, variance: float, lag) -> np.ndarray | float:
    """Power-law tail variance * H(2H-1) tau^{2H-2}; undefined at H = 1/2."""
    check_hurst(hurst, 0.0, 1.0)
    if hurst == 0.5:
        raise ValueError("asymptotic acvf is degenerate at H = 1/2")
    tau = np.asarray(lag, dtype=float)
    if np.any(tau < 1):
        raise ValueError("asymptotic form needs lag >= 1")
    out = variance * hurst * (2 * hurst - 1) * tau ** (2 * hurst - 2)
    return out if out.ndim else float(out)


#: FGN.acvf cuts its binomial series after _FGN_SERIES_TERMS terms from this
#: lag on and after 30 below: truncation below (1/64^2)^6, (1/4)^30 of gamma
_FGN_SERIES_LAG = 64
_FGN_SERIES_TERMS = 6


#: ln 2 at the 40 digits of _fgn_lag1
_LN2 = Decimal(2).ln(Context(prec=40))


def _fgn_lag1(two_h: float) -> float:
    """2^(2H-1) - 1 at 40 digits, so correctly rounded also where long
    double is plain double: the difference loses at most 16 of them next
    to H = 1/2 (it matched a 60-digit evaluation at all 25,000 H tried,
    2,000 of them within 1e-6 of 1/2)."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float(((Decimal(float(two_h)) - 1) * _LN2).exp() - 1)


def _binomial_series(tau: np.ndarray, two_h: float, terms: int,
                     variance: float) -> np.ndarray:
    """variance tau^{2H-2} sum_{k=1..terms} C(2H, 2k) tau^{2-2k} at lags
    tau >= 2, one power per lag; tau is overwritten."""
    i = np.arange(1.0, 2 * terms + 1)
    c = variance * np.cumprod((two_h - i + 1) / i)[1::2]  # variance C(2H, 2k)
    x = np.multiply(tau, tau, out=np.empty_like(tau))
    np.divide(1.0, x, out=x)
    out = np.full(tau.shape, c[-1])
    for ck in c[-2::-1]:
        out *= x
        out += ck
    out *= np.power(tau, two_h - 2.0, out=tau)
    return out


def fbm_covariance(h: float, variance: float, t, s) -> np.ndarray | float:
    """Covariance of a stationary-increment motion with increment exponent h.

    E X(t) X(s) = (variance / 2) (|s|^{2h} + |t|^{2h} - |t-s|^{2h}),
    normalised so E X(1)^2 = variance.
    """
    check_hurst(h, 0.0, 1.0)
    tt = np.asarray(t, dtype=float)
    ss = np.asarray(s, dtype=float)
    if np.any(tt < 0) or np.any(ss < 0):
        raise ValueError("times must be >= 0")
    two_h = 2.0 * h
    out = 0.5 * variance * (
        np.abs(ss) ** two_h + np.abs(tt) ** two_h - np.abs(tt - ss) ** two_h
    )
    return out if out.ndim else float(out)


# --- model objects ---------------------------------------------------------


def _lookup(values: tuple[float, ...], lags: np.ndarray) -> np.ndarray:
    """values[lags] for lags in 0..L; InsufficientLagsError past L."""
    if np.any(lags >= len(values)):
        raise InsufficientLagsError(f"table covers lags 0..{len(values) - 1}, "
                                    f"need up to {int(np.max(lags))}")
    return np.asarray(values, dtype=float)[lags]


@dataclass(frozen=True)
class WhiteNoise:
    gamma0: float = 1.0

    def __post_init__(self):
        _check_positive(gamma0=self.gamma0)

    def acvf(self, lags) -> np.ndarray:
        t = np.asarray(lags, dtype=float)
        return np.where(t == 0, self.gamma0, 0.0)


@dataclass(frozen=True)
class FGN:
    hurst: float
    variance: float = 1.0

    def __post_init__(self):
        check_hurst(self.hurst, 0.0, 1.0)
        _check_positive(variance=self.variance)

    def acvf(self, lags) -> np.ndarray:
        """Autocovariance of fractional Gaussian noise at integer lags.

        gamma(tau) = (variance / 2) (|tau+1|^{2H} - 2 |tau|^{2H}
        + |tau-1|^{2H}), the second central difference of
        t -> variance * t^{2H} / 2. Its three terms are tau^2 times larger
        than gamma and cancel, so from lag 2 on it is the binomial series

            gamma(tau) = variance tau^{2H-2} sum_{k>=1} C(2H, 2k) tau^{2-2k},

        whose terms share one sign, cut after _FGN_SERIES_TERMS terms from
        lag _FGN_SERIES_LAG and after 30 below; gamma(1) = variance
        (2^(2H-1) - 1) in decimal (_fgn_lag1). Against a 50-digit
        evaluation, for H from 0.01 to 0.999, it was within 1.5e-15
        relative at lags 64 to 2^20 and 1.1e-15 at lags 1 to 63, where the
        difference was off by up to 1.1e-2 (H = 0.49, lag 2^20) and
        5.3e-11 (H = 0.01). Lags must be integers below _FGN_SERIES_LAG.
        """
        tau = np.array(lags, dtype=float).ravel()  # a fresh array
        np.abs(tau, out=tau)
        two_h = 2.0 * self.hurst
        near = np.flatnonzero(tau < _FGN_SERIES_LAG)  # one pass, not three
        t = tau[near]
        k = t.astype(np.intp)
        if np.any(k != t):
            raise ValueError("fGn lags must be integers")
        # the far series over all lags, in place; the near ones are then
        # overwritten from g, gamma(0.._FGN_SERIES_LAG - 1)
        tau[near] = _FGN_SERIES_LAG
        v = self.variance
        out = _binomial_series(tau, two_h, _FGN_SERIES_TERMS, v)
        g = np.empty(_FGN_SERIES_LAG)
        g[:2] = v, v * _fgn_lag1(two_h)
        g[2:] = _binomial_series(np.arange(2.0, _FGN_SERIES_LAG), two_h, 30, v)
        out[near] = g[k]
        return out.reshape(np.shape(lags))


@dataclass(frozen=True)
class OU:
    tau_c: float
    gamma0: float = 1.0

    def __post_init__(self):
        _check_positive(tau_c=self.tau_c, gamma0=self.gamma0)

    def acvf(self, lags) -> np.ndarray:
        """Exponential autocovariance gamma0 * exp(-lag / tau_c).

        Parameterised by the stationary variance gamma0 directly rather
        than a Langevin noise amplitude; only the acvf shape matters to
        every consumer in this package.
        """
        t = np.abs(np.asarray(lags, dtype=float))
        return np.asarray(self.gamma0 * np.exp(-t / self.tau_c))


@dataclass(frozen=True)
class AR1:
    phi: float
    gamma0: float = 1.0

    def __post_init__(self):
        if not -1.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (-1, 1)")
        _check_positive(gamma0=self.gamma0)

    def acvf(self, lags) -> np.ndarray:
        """AR(1) autocovariance gamma0 * phi^|lag| (discretised OU process).

        |phi|^t rounds to 0 past t = 1075 ln 2 / -ln|phi|; pow is slow
        there, so it is evaluated below that lag only.
        """
        t = np.abs(np.asarray(lags, dtype=float))
        live = t < 746.0 / -math.log(max(abs(self.phi), 1e-300))
        out = np.zeros_like(t)
        out[live] = self.gamma0 * self.phi ** t[live]
        return out


@dataclass(frozen=True)
class AcvfTable:
    """Explicit gamma(0..L); errors rather than extrapolates past L."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size == 0 or not np.isfinite(v).all() or v[0] <= 0:
            raise ValueError("table needs finite values and gamma(0) > 0")
        if np.any(np.abs(v) > v[0] * (1 + 1e-12)):
            raise ValueError("|gamma(tau)| must not exceed gamma(0)")
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def acvf(self, lags) -> np.ndarray:
        return _lookup(self.values, np.abs(np.asarray(lags)))


@dataclass(frozen=True)
class FBM:
    hurst: float
    variance: float = 1.0

    def __post_init__(self):
        check_hurst(self.hurst, 1.0, 2.0)
        _check_positive(variance=self.variance)

    def variogram(self, lags) -> np.ndarray:
        """Structure function S(t) = variance * t^{2(H-1)} for H in (1, 2)."""
        t = np.asarray(lags, dtype=float)
        if np.any(t < 0):
            raise ValueError("lag must be >= 0")
        return np.asarray(self.variance * t ** (2.0 * (self.hurst - 1.0)))


@dataclass(frozen=True)
class VariogramTable:
    """Explicit S(0..L) with S(0) = 0; S(t) = E(X_t - X_0)^2 >= 0."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size == 0 or not np.isfinite(v).all() or v[0] != 0:
            raise ValueError("table needs finite values and S(0) = 0")
        if np.any(v < 0):
            raise ValueError("a variogram table must not be negative")
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def variogram(self, lags) -> np.ndarray:
        t = np.asarray(lags)
        if np.any(t < 0):
            raise ValueError("lag must be >= 0")
        return _lookup(self.values, t)


AcvfModel = WhiteNoise | FGN | OU | AR1 | AcvfTable


@dataclass(frozen=True)
class DerivedVariogram:
    """Variogram S(t) = 2 (gamma(0) - gamma(t)) of a stationary model.
    It has no acvf, so expected_curve takes its variogram sum for it."""

    model: AcvfModel

    def variogram(self, lags) -> np.ndarray:
        t = np.asarray(lags)
        g0 = float(self.model.acvf(np.asarray(0)))
        return 2.0 * (g0 - self.model.acvf(t))


def _table(acvf=None, variogram=None) -> AcvfTable | VariogramTable:
    if (acvf is None) == (variogram is None):
        raise ModelSpecError(
            'table model needs either "acvf" or "variogram" values')
    if acvf is not None:
        return AcvfTable(values=tuple(acvf))
    return VariogramTable(values=tuple(variogram))


#: every kind a JSON model spec can name; the other keys of the spec are
#: the constructor's keyword arguments
MODELS = {"white": WhiteNoise, "fgn": FGN, "fbm": FBM, "ou": OU,
          "ar1": AR1, "table": _table}


def model_from_spec(spec):
    """Build a model object from its JSON description, e.g.
    {"kind": "fgn", "hurst": 0.7}; see MODELS for the kinds.

    A spec that is not an object, names no known kind, or passes a
    missing, unknown or non-numeric parameter raises ModelSpecError; a
    JSON boolean is not a number here, although Python counts it as an
    int. The model's own range checks raise ValueError.
    """
    if not isinstance(spec, dict):
        raise ModelSpecError(f"model spec must be a JSON object, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in MODELS:
        raise ModelSpecError(
            f"unknown model kind {kind!r}; expected one of {sorted(MODELS)}")
    for name, value in params.items():
        if any(isinstance(v, bool)
               for v in (value if isinstance(value, list) else [value])):
            raise ModelSpecError(f"parameter {name!r} of model kind "
                                 f"{kind!r} must be a number, got {value!r}")
    try:
        return MODELS[kind](**params)
    except TypeError as exc:
        raise ModelSpecError(f"bad parameters for model kind {kind!r}: "
                             f"{exc}") from None
