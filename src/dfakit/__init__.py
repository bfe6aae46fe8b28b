"""Detrended fluctuation analysis toolkit.

Sample estimators (including gap-tolerant variants for series with
missing data), exact expected fluctuation functions for stationary and
stationary-increment processes, asymptotic scaling constants, and
finite-size bias correction.
"""

__version__ = "0.1.0"

from .core import (
    design_matrix,
    hat_matrix,
    profile,
    residual_variance_direct,
    residual_variance_increment,
    residual_variance_quadratic,
    weight_matrix,
)
from .estimators import (
    FluctuationCurve,
    GappedSeries,
    HurstFit,
    default_scale_grid,
    dfa,
    ensemble,
    estimate_hurst,
    f_hat,
    f_tilde,
    gap_weights,
)
from .expectation import (
    asymptotic_lambda,
    correction_function,
    expected_curve,
    expected_f2_general,
    modified_f2,
)
from .generators import (
    add_polynomial_trend,
    block_gap_mask,
    sample,
    sample_stack,
)
from .models import (
    AR1,
    FBM,
    FGN,
    OU,
    AcvfTable,
    VariogramTable,
    WhiteNoise,
    fbm_covariance,
    fgn_acvf_asymptotic,
    model_from_spec,
)
from .weights import (
    asymptotic_coefficients,
    asymptotic_inverse_gram,
    asymptotic_weight,
    closed_form_g,
    weight_function,
)
