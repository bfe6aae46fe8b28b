"""Deterministic synthesis of test signals.

A process is named by its model object, as in sample(FGN(0.7), n, seed);
sample_stack(model, n, seed, replicates) draws an (R, n) stack of
Gaussian series from any model with an autocovariance (white noise,
fGn, OU, AR(1), an acvf table) through one circulant embedding
(Davies-Harte), which reproduces the target autocovariance exactly at
every lag. The acvf and the embedding's eigenvalues are computed once
per stack, and one real inverse FFT of the Hermitian half of the
spectrum (entries 0..n of 2n) runs over each block of rows;
sample(model, n, seed, replicate) is its one-row case, so a row of a
stack equals the sample of its key bit for bit. For fGn the 2n
embedding is nonnegative in exact arithmetic for every H (Craigmile
2003, J. Time Ser. Anal. 24:505). In float64 its smallest eigenvalue
was checked to be >= 0 for fGn with H in {0.001, 0.01, 0.05, 0.1, ...,
0.9, 0.95, 0.99, 0.999}, AR(1) with phi in {+-0.5, +-0.9, +-0.99}, OU
with tau_c in {0.5, 1, 10, 100, 1000} and white noise, at every power
of two n up to 2^20 and at n = 10^2, ..., 10^6; at H = 0.999 and
n = 2^20 it is +0.0017, so it rests on an acvf accurate at long lags
(FGN.acvf). So in practice only an AcvfTable reaches the fallback, a
Cholesky factorisation of the n x n covariance (capped at n = 8192),
factored once per stack. A motion (FBM) is the
running sum of its fractional-noise increments; a variogram table
cannot be sampled.
Random streams come from the counter-based Philox generator keyed by
(seed, replicate), so ensembles are reproducible under any parallel
schedule.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import estimators
from .exceptions import DFAError, EmbeddingError, NonFiniteValueError
from .models import FBM, FGN

_CHOLESKY_MAX_N = 8192


def _rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, replicate]))


def _circulant_eigenvalues(gamma: np.ndarray, gamma_n: float) -> np.ndarray:
    """Eigenvalues of the 2n-circulant embedding of an acvf gamma(0..n-1)."""
    c = np.concatenate([gamma, [gamma_n], gamma[:0:-1]])
    return np.fft.fft(c).real


def sample(model, n: int, seed: int, replicate: int = 0) -> np.ndarray:
    """Exact Gaussian sample x(1..n) of a model, keyed by (seed, replicate):
    the one-row case of sample_stack."""
    return sample_stack(model, n, seed, [replicate])[0]


# an overflow raises NonFiniteValueError below; its warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def sample_stack(model, n: int, seed: int, replicates) -> np.ndarray:
    """An (R, n) stack of exact Gaussian samples, row i keyed by
    (seed, replicates[i]).

    A model with an acvf goes through the circulant embedding, which
    reads gamma(0..n-1) and gamma(n); an FBM goes through it as the
    FGN(H - 1, variance) of its increments, summed along each row last, so
    X(0) = 0 and the increments of each row are exactly that noise
    stream. The acvf and the embedding's eigenvalues (or the Cholesky
    factor) are computed once for the stack; each row is what
    sample(model, n, seed, replicate) gives, bit for bit. A stack that is
    not finite (a variance too large for float64) raises
    NonFiniteValueError, whose message names the model given; a seed or
    key that is not an integer, ValueError.
    """
    if n < 2:
        raise ValueError("length must be >= 2")
    keys = list(replicates)
    bad = [k for k in [seed, *keys] if not isinstance(k, numbers.Integral)]
    if bad:
        raise ValueError(f"seed and replicate keys must be integers, "
                         f"got {bad[0]!r}")
    noise = (FGN(model.hurst - 1.0, model.variance)
             if isinstance(model, FBM) else model)
    if not hasattr(noise, "acvf"):
        raise DFAError(f"cannot sample {type(model).__name__}: "
                       "it has no acvf")
    gamma = np.asarray(noise.acvf(np.arange(n)), dtype=float)
    lam = _circulant_eigenvalues(gamma, float(noise.acvf(n)))
    # an overflowing eigenvalue is no sign that the embedding is negative
    if not np.isfinite(lam).all():
        raise NonFiniteValueError(f"the samples are not finite: the circulant "
                                  f"eigenvalues of {model!r} overflow; "
                                  "rescale the model")
    out = np.empty((len(keys), n))
    if lam.min() >= 0:
        m = 2 * n
        root = np.sqrt(lam[:n + 1])
        # rows go through in blocks, so the complex temporaries take
        # O(block n) memory
        block = max(1, estimators._BLOCK_VALUES // n)
        for lo in range(0, len(keys), block):
            rows = keys[lo:lo + block]
            # per row, the normals of z(0), z(n) and the pairs of z(1..n-1)
            v = np.empty((len(rows), m))
            for row, r in zip(v, rows):
                _rng(seed, r).standard_normal(out=row)
            z = np.empty((len(rows), n + 1), dtype=complex)
            z[:, 0] = v[:, 0]
            z[:, n] = v[:, 1]
            z[:, 1:n] = (v[:, 2::2] + 1j * v[:, 3::2]) / np.sqrt(2)
            z *= root
            out[lo:lo + len(rows)] = np.sqrt(m) * np.fft.irfft(
                z, m, axis=1)[:, :n]
    elif n > _CHOLESKY_MAX_N:
        raise EmbeddingError(
            f"circulant embedding not nonnegative and n={n} exceeds the "
            f"Cholesky fallback cap {_CHOLESKY_MAX_N}"
        )
    else:
        idx = np.arange(n)
        chol = np.linalg.cholesky(gamma[np.abs(np.subtract.outer(idx, idx))])
        # one row at a time: a matrix-vector product, as for one sample
        for row, r in zip(out, keys):
            row[:] = chol @ _rng(seed, r).standard_normal(n)
    if not np.isfinite(out).all():
        raise NonFiniteValueError("the samples are not finite; rescale "
                                  "the model")
    if noise is not model:
        # noise drawn from finite eigenvalues lies far inside the float
        # range, so its running sum stays finite
        np.cumsum(out, axis=1, out=out)
    return out


def add_polynomial_trend(series, coefficients) -> np.ndarray:
    """Add beta_0 + beta_1 t + ... evaluated at t = 1..n to the series."""
    x = np.asarray(series, dtype=float)
    beta = np.asarray(coefficients, dtype=float)
    t = np.arange(1, x.shape[0] + 1, dtype=float)
    trend = np.polynomial.polynomial.polyval(t, beta)
    return x + trend


def block_gap_mask(n: int, missing_fraction: float, mean_block_length: float,
                   seed: int) -> np.ndarray:
    """Availability mask with geometrically distributed gap blocks.

    Missing runs have the given mean length; present runs are sized so
    the expected missing fraction matches the target.
    """
    if not 0.0 < missing_fraction < 1.0:
        raise ValueError("missing fraction must lie in (0, 1)")
    if not 1.0 <= mean_block_length < np.inf:  # NaN fails too
        raise ValueError("mean_block_length must be finite and >= 1, "
                         f"got {mean_block_length}")
    f = float(missing_fraction)  # Python floats overflow without a warning
    mean_present = float(mean_block_length) * (1.0 - f) / f
    if not np.isfinite(mean_present):
        raise ValueError(f"mean_block_length {mean_block_length} makes the "
                         f"mean present-run length overflow at fraction {f}")
    rng = _rng(seed, 0)
    mask = np.empty(n, dtype=bool)
    pos = 0
    missing = rng.random() < missing_fraction
    while pos < n:
        mean = mean_block_length if missing else mean_present
        run = rng.geometric(min(1.0, 1.0 / mean))
        mask[pos: pos + run] = not missing
        pos += run
        missing = not missing
    return mask
