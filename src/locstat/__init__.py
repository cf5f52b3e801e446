"""Nonparametric spectral estimation for locally stationary time series.

The package simulates Gaussian processes with time-varying autoregressive
structure, evaluates quasi-likelihood contrasts built from the
pre-periodogram, and fits models whose innovation variance is a monotone
step function, with Monte Carlo harnesses that check the supporting
identities, tail bounds, and convergence rates.

Sign convention (read this first): an order-p model here satisfies

    x[t] + alpha_1(t/n) x[t-1] + ... + alpha_p(t/n) x[t-p] = sigma(t/n) e[t],

coefficients on the LEFT of the equation, so simulation subtracts the
coefficient sum.  Most AR toolkits put the coefficients on the right;
negate when converting.
"""

from .curves import (
    ConstantCurve,
    Curve,
    FourierCurve,
    MonotoneStepCurve,
    SampledCurve,
    curve_from_spec,
    curve_to_spec,
)
from .espec import (
    SpectralProcessSample,
    TailStudySpec,
    bias_scaling_study,
    chi2_tail_study,
    clopper_pearson_upper,
    expected_functional_trace,
    limit_covariance,
    replication_seed,
    spectral_process_sample,
    tail_bound_linear,
    tail_bound_quadratic,
)
from .estimator import (
    DegenerateDataError,
    FitConfig,
    FitResult,
    FourierFitResult,
    curve_inverse_l2_distance,
    default_eps,
    default_knots,
    fit_fourier_tvar,
    fit_monotone_tvar,
    inverse_l2_distance,
    wls_ar,
)
from .harness import (
    RateStudyResult,
    RateStudySpec,
    default_rate_model,
    likelihood_equivalence_decay,
    log_log_slope,
    rate_study,
    read_rows_csv,
    study_knots,
    wavy_alpha_model,
    write_metadata,
    write_rows_csv,
)
from .isotonic import IsotonicFit, pava_monotone, sieve_pava
from .likelihood import (
    ar_log_spectrum_integral,
    conditional_likelihood,
    divergence_sandwich,
    kl_contrast,
    kl_divergence,
    likelihood_gap,
    log_riemann_remainder,
    whittle_contrast,
)
from .process import (
    DEFAULT_BURN_IN,
    SpectrumField,
    TimeSeries,
    TvARModel,
    ar_autocov,
    check_stability,
    model_from_json,
    simulate_tvar,
    spectral_density,
    transfer_abs2,
    tv_covariance,
    white_noise_model,
)
from .spectral import (
    FrequencyGrid,
    NormReport,
    PrePeriodogram,
    ResourceLimitError,
    TestFunction,
    ar_inverse_weight,
    constant_weight,
    lag_curve_weight,
    periodogram,
    quadratic_form_matrix,
    spectral_functional,
    spectral_functional_limit,
    weight_norms,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # curves
    "Curve",
    "ConstantCurve",
    "FourierCurve",
    "SampledCurve",
    "MonotoneStepCurve",
    "curve_to_spec",
    "curve_from_spec",
    # process
    "TvARModel",
    "TimeSeries",
    "SpectrumField",
    "simulate_tvar",
    "check_stability",
    "spectral_density",
    "transfer_abs2",
    "tv_covariance",
    "ar_autocov",
    "model_from_json",
    "white_noise_model",
    "DEFAULT_BURN_IN",
    # spectral
    "FrequencyGrid",
    "PrePeriodogram",
    "periodogram",
    "TestFunction",
    "constant_weight",
    "lag_curve_weight",
    "ar_inverse_weight",
    "quadratic_form_matrix",
    "spectral_functional",
    "spectral_functional_limit",
    "weight_norms",
    "NormReport",
    "ResourceLimitError",
    # likelihood
    "whittle_contrast",
    "kl_contrast",
    "kl_divergence",
    "divergence_sandwich",
    "conditional_likelihood",
    "likelihood_gap",
    "log_riemann_remainder",
    "ar_log_spectrum_integral",
    # isotonic
    "IsotonicFit",
    "pava_monotone",
    "sieve_pava",
    # estimator
    "FitConfig",
    "FitResult",
    "fit_monotone_tvar",
    "wls_ar",
    "default_knots",
    "default_eps",
    "fit_fourier_tvar",
    "FourierFitResult",
    "inverse_l2_distance",
    "curve_inverse_l2_distance",
    "DegenerateDataError",
    # espec
    "TailStudySpec",
    "chi2_tail_study",
    "clopper_pearson_upper",
    "tail_bound_quadratic",
    "tail_bound_linear",
    "replication_seed",
    "SpectralProcessSample",
    "spectral_process_sample",
    "limit_covariance",
    "bias_scaling_study",
    "expected_functional_trace",
    # harness
    "default_rate_model",
    "wavy_alpha_model",
    "study_knots",
    "RateStudySpec",
    "RateStudyResult",
    "rate_study",
    "log_log_slope",
    "likelihood_equivalence_decay",
    "write_rows_csv",
    "read_rows_csv",
    "write_metadata",
]
