"""Exact means of the estimators, through the production engine.

Every estimator is a quadratic form x^T M x of the series (f_hat too:
its centring subtracts a present value of x, a linear map). For a
Gaussian series with covariance Sigma = L L^T,

    E[x^T M x] = tr(L^T M L) = sum_i (L e_i)^T M (L e_i),

so the estimator summed over the columns of L is its exact mean, with
no Monte Carlo noise (Mathai and Provost, Quadratic Forms in Random
Variables, 1992). It costs O(n^3) for the factor and one engine pass
over n replicates: a reference for n up to about 2048, not a product
path.
"""

import numpy as np

from dfakit.estimators import ensemble
from dfakit.models import FBM, FGN


def _cholesky(model, n: int) -> np.ndarray:
    """Lower Cholesky factor of the n x n Toeplitz covariance of an acvf
    model."""
    idx = np.arange(n)
    gamma = model.acvf(idx)
    return np.linalg.cholesky(gamma[np.abs(np.subtract.outer(idx, idx))])


def exact_estimator_means(model, mask, m: int, scales) -> dict:
    """Exact E F^2 (S,) of "standard", "f_hat" and "f_tilde" for a series
    of ``model`` as long as ``mask``; an FBM is the running sum of its
    FGN(H - 1) increments, as ``generators.sample`` draws it."""
    mask = np.asarray(mask, dtype=bool)
    if isinstance(model, FBM):
        increments = FGN(model.hurst - 1.0, model.variance)
        factor = np.cumsum(_cholesky(increments, len(mask)), axis=0)
    else:
        factor = _cholesky(model, len(mask))
    curves = ensemble(factor.T, mask, m, scales)
    return {e: curve.f2.sum(axis=0) for e, curve in curves.items()}
