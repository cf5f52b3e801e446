"""Whittle-type contrasts for locally stationary Gaussian series.

The central object is the local Whittle contrast

    L_n(g) = (1/n) sum_t (1/4 pi) int { log g(t/n, lam)
             + J(t/n, lam) / g(t/n, lam) } dlam,

with J the pre-periodogram.  For candidate spectra backed by a time-varying
AR model the frequency integral collapses exactly: the log term via the
classical Kolmogorov identity int log |1 + sum_j a_j e^{i lam j}|^2 dlam = 0
for stable coefficients, and the ratio term into a finite sum of lag
products.  A conditional Gaussian likelihood on the same model class is
provided for the fitting algorithms, together with the population contrast
(an asymptotic Kullback-Leibler functional) and its divergence form.
"""

import numpy as np

from .curves import ConstantCurve, Curve
from .process import SpectrumField, as_field, coeff_autocorr, transfer_abs2
from .spectral import FrequencyGrid, PrePeriodogram, _series_values, _time_grid

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


def whittle_contrast(series, g, grid=None):
    """Local Whittle contrast of a candidate spectrum on a series.

    For AR-backed candidates the value is computed exactly from lag products;
    otherwise by Riemann sum over a symmetric frequency grid (default 1024
    nodes).  The two paths agree up to quadrature error, which vanishes for
    the exact path's class.

    Parameters
    ----------
    series : TimeSeries, array_like, or PrePeriodogram
    g : SpectrumField (or TvARModel / callable, which are wrapped)
    grid : FrequencyGrid, optional
        Used only on the generic quadrature path.

    Returns
    -------
    float
    """
    g = as_field(g)
    J = series if isinstance(series, PrePeriodogram) else PrePeriodogram(series)
    n = J.n
    t_over_n = np.arange(1, n + 1) / n

    model = g.ar_model
    if model is not None:
        if not getattr(model, "validated", False):
            model.validate()
        s2 = model.sigma2.values(t_over_n)
        log_part = 0.5 * float(np.mean(np.log(s2 / (2 * np.pi))))
        quad = 0.0
        for d in range(-model.p, model.p + 1):
            t, prods = J.lag_products(d)
            if len(t) == 0:
                continue
            u = t / n
            gam = coeff_autocorr(model, u, d)
            quad += float(np.dot(gam / model.sigma2.values(u), prods))
        return log_part + quad / (2 * n)

    if grid is None:
        grid = FrequencyGrid()
    gvals = g.values(t_over_n[:, None], grid.nodes[None, :])
    if np.min(gvals) <= 0 or not np.all(np.isfinite(gvals)):
        raise ValueError("candidate spectrum must be positive and finite at all nodes")
    Jmat = J.evaluate_grid(grid)
    integrand = np.log(gvals) + Jmat / gvals
    return float(np.sum(integrand) * grid.weight / (4 * np.pi * n))


def _mesh_values(g, f, grid, u_grid_size):
    """Both fields on the midpoint mesh (u_grid_size cells) x grid nodes.

    Returns (grid, number of time cells, g values, f values); grid defaults
    to the 1024-node FrequencyGrid.  Raises unless both are positive.
    """
    g, f = as_field(g), as_field(f)
    if grid is None:
        grid = FrequencyGrid()
    u = _time_grid(int(u_grid_size))
    gv = g.values(u[:, None], grid.nodes[None, :])
    fv = f.values(u[:, None], grid.nodes[None, :])
    if np.min(gv) <= 0 or np.min(fv) <= 0:
        raise ValueError("spectra must be strictly positive on the mesh")
    return grid, len(u), gv, fv


def kl_contrast(g, f, grid=None, u_grid_size=KL_TIME_GRID):
    """Population contrast (1/4 pi) int int { log g + f/g } dlam du.

    This is the almost-sure limit of the Whittle contrast when f is the true
    spectrum; it is minimized over positive candidates at g = f.
    """
    grid, cells, gv, fv = _mesh_values(g, f, grid, u_grid_size)
    return float(np.sum(np.log(gv) + fv / gv) * grid.weight / (4 * np.pi * cells))


def kl_divergence(g, f, grid=None, u_grid_size=KL_TIME_GRID):
    """Divergence D(g, f) = (1/4 pi) int int { log(g/f) + f/g - 1 } dlam du.

    Computed in difference form, whose integrand is pointwise nonnegative, so
    the result is nonnegative up to rounding even when the two contrasts are
    individually large.
    """
    grid, cells, gv, fv = _mesh_values(g, f, grid, u_grid_size)
    r = fv / gv
    return float(np.sum(np.log(1.0 / r) + r - 1.0) * grid.weight / (4 * np.pi * cells))


def divergence_sandwich(g, f, grid=None, u_grid_size=512):
    """Divergence with its inverse-distance lower and upper bounds.

    On one shared evaluation mesh, computes the squared L2 distance of the
    inverse spectra, rho^2 = int int (1/g - 1/f)^2, the divergence D(g, f),
    and the two-sided bounds

        rho^2 / (8 pi M*^2)  <=  D(g, f)  <=  Omega^2 rho^2 / (4 pi),

    where M* is the larger of the two inverse-spectrum sups and Omega the
    larger of the two spectrum sups, both taken on the same mesh.  The chain
    holds pointwise on the mesh, so the inequalities are exact up to rounding.

    Returns
    -------
    dict with keys divergence, rho_sq, lower, upper, m_star, omega.
    """
    grid, cells, gv, fv = _mesh_values(g, f, grid, u_grid_size)
    cell = grid.weight / cells
    r = fv / gv
    divergence = float(np.sum(np.log(1.0 / r) + r - 1.0) * cell / (4 * np.pi))
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
        sigma2 = ConstantCurve(float(sigma2))
    resid = x[p:].copy()
    for j in range(1, p + 1):
        resid += alpha[j - 1] * x[p - j : n - j]
    u = np.arange(p + 1, n + 1) / n
    s2 = sigma2.values(u)
    if np.min(s2) <= 0:
        raise ValueError("sigma2 must be strictly positive at the design points")
    return float(np.sum(np.log(s2) + resid ** 2 / s2) / n)


def log_riemann_remainder(g, n, grid=None, u_grid_size=KL_TIME_GRID):
    """Discretization gap of the log-spectrum between design sum and integral.

    (1/4 pi) int { (1/n) sum_t log g(t/n, lam) - int_0^1 log g(u, lam) du } dlam.

    For an AR-backed candidate this reduces exactly to
    (1/2) { (1/n) sum_t log sigma^2(t/n) - int_0^1 log sigma^2(u) du }.
    It vanishes whenever g does not vary in time and decays like the
    variation of g over a 1/n mesh otherwise.
    """
    g = as_field(g)
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    design = np.arange(1, n + 1) / n
    u = _time_grid(int(u_grid_size))
    model = g.ar_model
    if model is not None:
        if not getattr(model, "validated", False):
            model.validate()
        design_mean = float(np.mean(np.log(model.sigma2.values(design))))
        integral = float(np.mean(np.log(model.sigma2.values(u))))
        return 0.5 * (design_mean - integral)
    if grid is None:
        grid = FrequencyGrid()
    logs_design = np.log(g.values(design[:, None], grid.nodes[None, :]))
    logs_integral = np.log(g.values(u[:, None], grid.nodes[None, :]))
    gap = np.mean(logs_design, axis=0) - np.mean(logs_integral, axis=0)
    return float(np.sum(gap) * grid.weight / (4 * np.pi))


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
