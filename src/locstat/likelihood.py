"""Whittle-type contrasts for locally stationary Gaussian series.

The central object is the local Whittle contrast

    L_n(g) = (1/n) sum_t (1/4 pi) int { log g(t/n, lam)
             + J(t/n, lam) / g(t/n, lam) } dlam,

with J the pre-periodogram: a log integral plus the spectral functional of
the weight 1/g.  The population contrast (an asymptotic Kullback-Leibler
functional) replaces J by the true spectrum f.  Every spectrum here is that
of a time-varying AR model (a SpectrumField or TvARModel), so both parts are
exact: the log term via the Kolmogorov identity
int log |1 + sum_j a_j e^{i lam j}|^2 dlam = 0 for stable coefficients, and
the functional as a finite sum over the lags |m| <= p of 1/g.  Only the
sups of :func:`divergence_sandwich` on time-varying pairs need a frequency
mesh.  A conditional Gaussian likelihood on the same model class is provided
for the fitting algorithms.
"""

import numpy as np

from .curves import ConstantCurve, Curve, as_number
from .process import SpectrumField, as_field, coeff_autocorr, transfer_abs2
from .spectral import FrequencyGrid, PrePeriodogram, _series_values, _time_grid
from .spectral import ar_inverse_weight, spectral_functional, spectral_functional_limit

__all__ = [
    "SpectrumField",  # defined in locstat.process
    "whittle_contrast",
    "kl_contrast",
    "kl_divergence",
    "divergence_sandwich",
    "conditional_likelihood",
    "log_riemann_remainder",
    "ar_log_spectrum_integral",
]

KL_TIME_GRID = 4096


def whittle_contrast(series, g):
    """Local Whittle contrast of a candidate spectrum on a series.

    The mean over t of :func:`_log_integral` plus the spectral functional of
    the weight 1/g, divided by 4 pi.  Both parts are exact: the log integral
    by the Kolmogorov identity and the functional by its lag path.

    Parameters
    ----------
    series : TimeSeries, array_like, or PrePeriodogram
    g : SpectrumField (or TvARModel, which is wrapped)

    Returns
    -------
    float
    """
    model = as_field(g).ar_model
    x = series.x if isinstance(series, PrePeriodogram) else _series_values(series)
    n = len(x)
    log_part = np.mean(_log_integral(model, np.arange(1, n + 1) / n))
    functional = spectral_functional(x, ar_inverse_weight(model))
    return float((log_part + functional) / (4 * np.pi))


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


def _separable(g, f, grid, u):
    """Factors of two AR fields whose coefficient rows are constant in u.

    Such a field is sigma^2(u) h(lam) with h = 1 / (2 pi |1 + sum_j alpha_j
    e^{i lam j}|^2), so every sum and sup over the mesh is a product of sums
    and sups over u and over lam.  Returns ((sigma^2_g, h_g), (sigma^2_f,
    h_f)) on the times u and the grid nodes, or None when either field has
    time-varying coefficients.  Raises unless both variances are positive.
    """
    rows = [m.alpha_matrix(u) for m in (g.ar_model, f.ar_model)]
    if any(np.any(a != a[:1]) for a in rows):
        return None
    return [
        (_positive(m.sigma2.values(u)), 1.0 / (2 * np.pi * transfer_abs2(a[0], grid.nodes)))
        for m, a in zip((g.ar_model, f.ar_model), rows)
    ]


def _phi_sum(x):
    # sum of x - 1 - log x, the divergence integrand at ratio x
    return np.sum(np.log(1.0 / x) + x - 1.0)


def _separable_divergence(grid, cells, g_factors, f_factors):
    # with r = f/g = s(u) q(lam): phi(s q) = phi(s) + phi(q) + (s - 1)(q - 1),
    # so the mesh sum of phi(r) needs sums over u and over lam only
    s = f_factors[0] / g_factors[0]
    q = f_factors[1] / g_factors[1]
    total = grid.size * _phi_sum(s) + cells * _phi_sum(q) + np.sum(s - 1.0) * np.sum(q - 1.0)
    return float(total * grid.weight / (4 * np.pi * cells))


def _inverse_lags(model, u, order):
    # c(u, m) / sigma^2(u) for m = 0..order: 1/f(u, lam) is 2 pi times the
    # trigonometric polynomial with these coefficients at lags +-m
    s2 = _positive(model.sigma2.values(u))
    return np.stack([coeff_autocorr(model, u, m) for m in range(order + 1)], axis=-1) / s2[:, None]


def _inverse_distance_sq(g, f, u_grid_size):
    """Mean over the midpoint u-grid of int (1/g - 1/f)^2 dlam.

    Parseval gives (2 pi)^3 sum_{|m|<=p} d(u, m)^2 with d the per-lag
    difference of the :func:`_inverse_lags`: exact and free of cancellation
    when g is close to f.  Equal to the mesh sum on any frequency grid with
    more than 2p nodes, because the midpoint grid integrates the degree-2p
    integrand exactly.
    """
    g, f = as_field(g).ar_model, as_field(f).ar_model
    u = _time_grid(u_grid_size)
    order = max(g.p, f.p)
    d = _inverse_lags(g, u, order) - _inverse_lags(f, u, order)
    per_u = d[:, 0] ** 2 + 2 * np.sum(d[:, 1:] ** 2, axis=1)
    return float((2 * np.pi) ** 3 * np.mean(per_u))


def kl_contrast(g, f, u_grid_size=KL_TIME_GRID):
    """Population contrast (1/4 pi) int int { log g + f/g } dlam du.

    This is the almost-sure limit of the Whittle contrast when f is the true
    spectrum; it is minimized over positive candidates at g = f.  Computed
    as the mean over the midpoint u-grid of :func:`_log_integral` plus
    :func:`~locstat.spectral.spectral_functional_limit` of the weight 1/g
    against f, so it is exact in lam.
    """
    g, f = as_field(g).ar_model, as_field(f).ar_model
    u = _time_grid(u_grid_size)
    log_part = np.mean(_log_integral(g, u))
    _positive(f.sigma2.values(u))
    functional = spectral_functional_limit(ar_inverse_weight(g), f, u_grid_size=len(u))
    return float((log_part + functional) / (4 * np.pi))


def kl_divergence(g, f, u_grid_size=KL_TIME_GRID):
    """Divergence D(g, f) = (1/4 pi) int int { log(g/f) + f/g - 1 } dlam du.

    Computed as kl_contrast(g, f) - kl_contrast(f, f) on one u-grid, so exact
    in lam.  The divergence is nonnegative, but as a difference of two
    contrasts it can come out below zero by rounding, of the order of
    machine epsilon times the contrasts, when g is close to f.
    """
    return kl_contrast(g, f, u_grid_size) - kl_contrast(f, f, u_grid_size)


def divergence_sandwich(g, f, grid=None, u_grid_size=512):
    """Divergence with its inverse-distance lower and upper bounds.

    On one shared evaluation mesh of the midpoint u-grid and the nodes of
    grid (default 1024), computes the squared L2 distance of the inverse
    spectra, rho^2 = int int (1/g - 1/f)^2, the divergence D(g, f), and the
    two-sided bounds

        rho^2 / (8 pi M*^2)  <=  D(g, f)  <=  Omega^2 rho^2 / (4 pi),

    where M* is the larger of the two inverse-spectrum sups and Omega the
    larger of the two spectrum sups, both taken on the same mesh.  The chain
    holds pointwise on the mesh, so the inequalities are exact up to rounding.

    Two fields whose coefficients are constant in u take the exact path:
    rho^2 as a lag sum (equal to the mesh sum whenever grid has more than 2p
    nodes), the divergence from separate sums over u and lam, and M* and
    Omega as products of the maxima of the positive time and frequency
    factors, which are the mesh sups.  Fields with time-varying coefficients
    are evaluated on the mesh.

    Returns
    -------
    dict with keys divergence, rho_sq, lower, upper, m_star, omega.
    """
    g, f = as_field(g), as_field(f)
    grid = FrequencyGrid() if grid is None else grid
    u = _time_grid(u_grid_size)
    factors = _separable(g, f, grid, u)
    if factors is not None:
        divergence = _separable_divergence(grid, len(u), *factors)
        rho_sq = _inverse_distance_sq(g, f, u_grid_size)
        m_star = float(max(np.max(1.0 / s2) * np.max(1.0 / h) for s2, h in factors))
        omega = float(max(np.max(s2) * np.max(h) for s2, h in factors))
    else:
        gv, fv = (_positive(h.values(u[:, None], grid.nodes[None, :])) for h in (g, f))
        cell = grid.weight / len(u)
        divergence = float(_phi_sum(fv / gv) * cell / (4 * np.pi))
        rho_sq = float(np.sum((1.0 / gv - 1.0 / fv) ** 2) * cell)
        m_star = float(max(np.max(1.0 / gv), np.max(1.0 / fv)))
        omega = float(max(np.max(gv), np.max(fv)))
    return {
        "divergence": divergence,
        "rho_sq": rho_sq,
        "lower": rho_sq / (8 * np.pi * m_star ** 2),
        "upper": omega ** 2 * rho_sq / (4 * np.pi),
        "m_star": m_star,
        "omega": omega,
    }


def conditional_likelihood(series, alpha, sigma2):
    """Conditional Gaussian likelihood of a constant-coefficient candidate.

    (1/n) sum_{t=p+1}^n { log sigma^2(t/n) + e_t(alpha)^2 / sigma^2(t/n) }
    with residuals e_t = x_t + sum_j alpha_j x_{t-j}.  Note the 1/n
    normalization even though the sum has n - p terms.

    Parameters
    ----------
    series : TimeSeries or array_like
    alpha : sequence of float
        Constant AR coefficients; empty for order 0.
    sigma2 : Curve or positive float
        Innovation variance curve.

    Returns
    -------
    float
    """
    x = _series_values(series)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size and not np.all(np.isfinite(alpha)):
        raise ValueError("coefficients must be finite")
    p = len(alpha)
    n = len(x)
    if n <= p:
        raise ValueError(f"need more than p={p} observations")
    if not isinstance(sigma2, Curve):
        sigma2 = ConstantCurve(sigma2)
    resid = x[p:].copy()
    for j in range(1, p + 1):
        resid += alpha[j - 1] * x[p - j : n - j]
    u = np.arange(p + 1, n + 1) / n
    s2 = sigma2.values(u)
    if np.min(s2) <= 0:
        raise ValueError("sigma2 must be strictly positive at the design points")
    return float(np.sum(np.log(s2) + resid ** 2 / s2) / n)


def log_riemann_remainder(g, n, u_grid_size=KL_TIME_GRID):
    """Discretization gap of the log-spectrum between design sum and integral.

    (1/4 pi) int { (1/n) sum_t log g(t/n, lam) - int_0^1 log g(u, lam) du } dlam,

    the difference of two means of :func:`_log_integral`, at the design
    points t/n and on the midpoint u-grid.  By the Kolmogorov identity this
    is exactly (1/2) { (1/n) sum_t log sigma^2(t/n) - int_0^1 log sigma^2(u)
    du }.  It vanishes whenever g does not vary in time and decays like the
    variation of g over a 1/n mesh otherwise.
    """
    model = as_field(g).ar_model
    n = as_number(n, "n", int, 1)
    design = np.mean(_log_integral(model, np.arange(1, n + 1) / n))
    integral = np.mean(_log_integral(model, _time_grid(u_grid_size)))
    return float((design - integral) / (4 * np.pi))


def ar_log_spectrum_integral(alpha, grid_size=4096):
    """int log |1 + sum_j alpha_j e^{i lam j}|^2 dlam by midpoint quadrature.

    Zero (to quadrature accuracy) whenever the coefficients satisfy the root
    condition; a direct numerical check of the identity that makes the
    AR-backed contrast path exact.
    """
    grid = FrequencyGrid(grid_size)
    w = transfer_abs2(alpha, grid.nodes)
    if np.min(w) <= 0:
        raise ValueError("transfer function vanishes at a grid node")
    return float(np.sum(np.log(w)) * grid.weight)
