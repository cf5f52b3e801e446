"""Whittle-type contrasts for locally stationary Gaussian series.

The central object is the local Whittle contrast

    L_n(g) = (1/n) sum_t (1/4 pi) int { log g(t/n, lam)
             + J(t/n, lam) / g(t/n, lam) } dlam,

with J the pre-periodogram: a log integral plus the spectral functional of
the weight 1/g.  The population contrast (an asymptotic Kullback-Leibler
functional) replaces J by the true spectrum f.  Every spectrum here is that
of a time-varying AR model (a TvARModel), so both parts are
exact: the log term via the Kolmogorov identity
int log |1 + sum_j a_j e^{i lam j}|^2 dlam = 0 for stable coefficients, and
the functional as a finite sum over the lags |m| <= p of 1/g.  Only
:func:`divergence_sandwich`, the one path of the divergence D(g, f), takes
sums and sups over a frequency grid, once per run of equal coefficient rows.
The conditional Gaussian likelihood of the same candidate, the objective of
the monotone fit, is the "conditional" entry of :func:`likelihood_gap`, which
returns both contrasts and their gap.  Both are computed for a batch of
series at once, a single series being the one-row case.
"""

import math

import numpy as np

# SpectrumField stays importable from here; process.__all__ lists it
from .process import SpectrumField, _as_model, _coefficient_runs, coeff_autocorr, transfer_abs2  # noqa: F401
from .spectral import TIME_CELLS, FrequencyGrid, _lag_functionals, _series_values, _time_grid
from .spectral import ar_inverse_weight, spectral_functional_limit

__all__ = [
    "whittle_contrast",
    "kl_contrast",
    "divergence_sandwich",
    "likelihood_gap",
]

SANDWICH_CELLS = 512  # midpoint cells in u of divergence_sandwich's mesh, against a FrequencyGrid()


def whittle_contrast(series, g):
    """Local Whittle contrast of a candidate spectrum on a series.

    The mean over t of :func:`_log_integral` plus the spectral functional of
    the weight 1/g, divided by 4 pi.  Both parts are exact: the log integral
    by the Kolmogorov identity and the functional by its lag path.

    Parameters
    ----------
    series : TimeSeries or array_like
    g : TvARModel

    Returns
    -------
    float
    """
    model = _as_model(g)
    x = _series_values(series)
    return float(_whittle_rows(x[None, :], model)[0])


def _whittle_rows(X, model):
    """:func:`whittle_contrast` of model on each row of X, shape (R, n), with
    the log integral and the lag weights of 1/g built once for all rows."""
    n = X.shape[1]
    log_part = np.mean(_log_integral(model, np.arange(1, n + 1) / n))
    return (log_part + _lag_functionals(X, ar_inverse_weight(model))) / (4 * np.pi)


def _positive(values):
    """values, raising unless every one is positive and finite."""
    if not (np.min(values) > 0 and np.max(values) < np.inf):
        raise ValueError("spectra must be strictly positive on the mesh")
    return values


def _log_integral(model, u):
    """int log g(u, lam) dlam at each time u for the spectrum g of model.

    This is 2 pi log(sigma^2(u) / 2 pi) by the Kolmogorov identity
    int log |1 + sum_j alpha_j e^{i lam j}|^2 dlam = 0, which holds for
    stable coefficients, so the model is validated.  Raises unless sigma^2
    is positive at every u.
    """
    s2 = _positive(model.sigma2.values(u))
    if not model.validated:
        model.validate()
    return 2 * np.pi * np.log(s2 / (2 * np.pi))


def _phi(x):
    # x - 1 - log x, the divergence integrand at ratio x
    return np.log(1.0 / x) + x - 1.0


def _inverse_lags(model, u, order):
    # c(u, m) / sigma^2(u) for m = 0..order >= p, zero past p: 1/f(u, lam) is
    # 2 pi times the trigonometric polynomial with these coefficients at lags +-m
    s2 = _positive(model.sigma2.values(u))
    return np.pad(coeff_autocorr(model, u) / s2[:, None], ((0, 0), (0, order - model.p)))


def _inverse_distance_sq(g, f, cells):
    """Mean over the midpoint u-grid of cells cells of int (1/g - 1/f)^2 dlam.

    Parseval gives (2 pi)^3 sum_{|m|<=p} d(u, m)^2 with d the per-lag
    difference of the :func:`_inverse_lags`: exact and free of cancellation
    when g is close to f.  Equal to the mesh sum on any frequency grid with
    more than 2p nodes, because the midpoint grid integrates the degree-2p
    integrand exactly.
    """
    g, f = _as_model(g), _as_model(f)
    u = _time_grid(cells)
    order = max(g.p, f.p)
    d = _inverse_lags(g, u, order) - _inverse_lags(f, u, order)
    per_u = d[:, 0] ** 2 + 2 * np.sum(d[:, 1:] ** 2, axis=1)
    return float((2 * np.pi) ** 3 * np.mean(per_u))


def kl_contrast(g, f):
    """Population contrast (1/4 pi) int int { log g + f/g } dlam du.

    This is the almost-sure limit of the Whittle contrast when f is the true
    spectrum; it is minimized over positive candidates at g = f.  Computed
    as the mean over the midpoint u-grid of TIME_CELLS cells of
    :func:`_log_integral` plus
    :func:`~locstat.spectral.spectral_functional_limit` of the weight 1/g
    against f, on the same grid, so it is exact in lam.  Its excess over
    kl_contrast(f, f) is the divergence D(g, f) of :func:`divergence_sandwich`.
    """
    g, f = _as_model(g), _as_model(f)
    u = _time_grid(TIME_CELLS)
    log_part = np.mean(_log_integral(g, u))
    _positive(f.sigma2.values(u))
    functional = spectral_functional_limit(ar_inverse_weight(g), f)
    return float((log_part + functional) / (4 * np.pi))


def divergence_sandwich(g, f):
    """Divergence with its inverse-distance lower and upper bounds.

    On the mesh of the midpoint u-grid of SANDWICH_CELLS cells and the nodes
    of a FrequencyGrid() (1024 nodes), computes the squared L2 distance of the
    inverse spectra, rho^2 = int int (1/g - 1/f)^2, the divergence D(g, f),
    and the two-sided bounds

        rho^2 / (8 pi M*^2)  <=  D(g, f)  <=  Omega^2 rho^2 / (4 pi),

    where M* is the larger of the two inverse-spectrum sups and Omega the
    larger of the two spectrum sups, both taken on the same mesh.  The chain
    holds pointwise on the mesh, so the inequalities are exact up to rounding.

    At time u each spectrum is sigma^2(u) h(lam), with h = 1 / (2 pi |A|^2)
    fixed by the coefficient row at u, so h is computed once per run of equal
    rows of the pair (one run for constant coefficients), and with f/g = s q,
    phi(s q) = phi(s) + phi(q) + (s - 1)(q - 1) leaves sums over lam once per
    run.  rho^2 is the exact lag sum, equal to the mesh sum on more than 2p
    nodes.  Raises unless both spectra are positive and finite on the mesh.

    Returns
    -------
    dict with keys divergence, rho_sq, lower, upper, m_star, omega.
    """
    g, f = _as_model(g), _as_model(f)
    grid = FrequencyGrid()
    u = _time_grid(SANDWICH_CELLS)
    rows, owner = _coefficient_runs(np.concatenate([g.alpha_matrix(u), f.alpha_matrix(u)], axis=1))
    # (sigma^2 on u, h per run) of g, then of f
    (s2g, hg), (s2f, hf) = factors = [
        (_positive(m.sigma2.values(u)), _positive(1.0 / (2 * np.pi * transfer_abs2(a[:, None, :], grid.nodes))))
        for m, a in ((g, rows[:, : g.p]), (f, rows[:, g.p :]))
    ]
    s, q = s2f / s2g, hf / hg
    per_u = grid.size * _phi(s) + np.sum(_phi(q), axis=1)[owner] + (s - 1.0) * np.sum(q - 1.0, axis=1)[owner]
    divergence = float(np.sum(per_u) * grid.weight / (4 * np.pi * len(u)))
    rho_sq = _inverse_distance_sq(g, f, SANDWICH_CELLS)
    m_star = float(max(np.max(1.0 / s2 * np.max(1.0 / h, axis=1)[owner]) for s2, h in factors))
    omega = float(max(np.max(s2 * np.max(h, axis=1)[owner]) for s2, h in factors))
    return {
        "divergence": divergence,
        "rho_sq": rho_sq,
        "lower": rho_sq / (8 * np.pi * m_star ** 2),
        "upper": omega ** 2 * rho_sq / (4 * np.pi),
        "m_star": m_star,
        "omega": omega,
    }


def _residuals(x, a):
    """e_t = x_t + sum_j a_j x_{t-j} for t = p+1..n along x's last axis, with a
    the constant row of p coefficients or one row per t, shape (n - p, p)."""
    p = a.shape[-1]
    n = x.shape[-1]
    resid = x[..., p:].copy()
    for j in range(1, p + 1):
        resid += a[..., j - 1] * x[..., p - j : n - j]
    return resid


def _conditional(e2, s2, n):
    """(1/n) sum_t { log s2_t + e_t^2 / s2_t } over t = p+1..n, with e2 the
    squared residuals of :func:`_residuals` and s2 the variances at those t:
    a float for one series, one value per row for rows of e2."""
    if np.min(s2) <= 0:
        raise ValueError("sigma2 must be strictly positive at the design points")
    values = np.sum(np.log(s2) + e2 / s2, axis=-1) / n
    return float(values) if values.ndim == 0 else values


def _contrasts(X, model):
    """:func:`likelihood_gap` of model on each row of X, a validated (R, n)
    array, as arrays of R values, with the log integral, the lag weights of
    1/g, the coefficient rows and sigma^2 built once.  Each row's values equal
    the single-series ones bit for bit: lag products are dotted row by row,
    residuals are elementwise and a C-contiguous row sums as one series does."""
    n = X.shape[1]
    whittle = _whittle_rows(X, model)
    if n <= model.p:
        raise ValueError(f"need more than p={model.p} observations")
    u = np.arange(model.p + 1, n + 1) / n
    conditional = _conditional(_residuals(X, model.alpha_matrix(u)) ** 2, model.sigma2.values(u), n)
    return {
        "whittle": whittle,
        "conditional": conditional,
        "gap": np.abs(0.5 * (conditional - math.log(2 * math.pi)) - whittle),
    }


def likelihood_gap(series, g):
    """Both contrasts of a candidate model and the gap between them.

    whittle is :func:`whittle_contrast`.  conditional is the conditional
    Gaussian likelihood

        (1/n) sum_{t=p+1}^n { log sigma^2(t/n) + e_t^2 / sigma^2(t/n) },

    with residuals e_t = x_t + sum_j alpha_j(t/n) x_{t-j}; note the 1/n
    normalization even though the sum has n - p terms.  The gap
    | (1/2)(conditional - log 2 pi) - whittle | comes from boundary terms
    only, so it decays at rate 1/n.  Raises ValueError unless the series
    has more than p observations.

    Parameters
    ----------
    series : TimeSeries or array_like
    g : TvARModel

    Returns
    -------
    dict with keys whittle, conditional, gap.
    """
    model = _as_model(g)
    x = _series_values(series)
    return {key: float(values[0]) for key, values in _contrasts(x[None, :], model).items()}

