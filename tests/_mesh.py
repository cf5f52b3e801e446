"""Frequency-mesh oracles for the exact spectral paths of locstat.

lag_products reads the pre-periodogram's index rule off its definition,
periodogram is the ordinary periodogram that the pre-periodogram averages to
over t, and spectral_functional sums a weight against the pre-periodogram on
a FrequencyGrid.  Each other function evaluates the spectra of its TvARModels through
``process.spectral_density`` on the mesh of a midpoint u-grid of
``cells`` cells times the nodes of a FrequencyGrid, and sums the integrand
there.  This is the slow path that every exact path of the library (lag
sums, the Kolmogorov identity, the separable sandwich) must reproduce to
rounding, on any grid fine enough to integrate the integrand exactly.
"""

import numpy as np

from locstat import process
from locstat.spectral import FrequencyGrid, PrePeriodogram


def lag_products(x, k):
    """The 1-based times t at lag k whose indices i = floor(t + 1/2 + k/2)
    and j = floor(t + 1/2 - k/2) both lie in 1..n, and the products x_i x_j."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    t = np.arange(1, n + 1)
    i, j = np.floor(t + 0.5 + k / 2).astype(int), np.floor(t + 0.5 - k / 2).astype(int)
    ok = (np.minimum(i, j) >= 1) & (np.maximum(i, j) <= n)
    return t[ok], x[i[ok] - 1] * x[j[ok] - 1]


def periodogram(x, lam):
    """Ordinary periodogram I(lam) = |sum_t x_t e^{-i lam t}|^2 / (2 pi n) at
    the nodes of a FrequencyGrid or at an array of frequencies."""
    x = np.asarray(getattr(x, "values", x), dtype=float)
    nodes = lam.nodes if isinstance(lam, FrequencyGrid) else np.asarray(lam, dtype=float)
    n = len(x)
    t = np.arange(1, n + 1)
    dft = np.exp(-1j * np.outer(nodes, t)) @ x
    return np.abs(dft) ** 2 / (2 * np.pi * n)


def midpoints(cells):
    """The midpoint u-grid (i + 1/2)/cells, i = 0..cells-1."""
    return (np.arange(cells) + 0.5) / cells


def density(g, u, grid):
    """The spectrum of g on the mesh u x grid.nodes, checked positive."""
    values = process.spectral_density(g, u[:, None], grid.nodes[None, :])
    if not (np.min(values) > 0 and np.max(values) < np.inf):
        raise ValueError("spectra must be strictly positive on the mesh")
    return values


def log_integral(g, u, grid):
    """Riemann sum of int log g(u, lam) dlam at each u."""
    return np.sum(np.log(density(g, u, grid)), axis=1) * grid.weight


def spectral_functional(x, phi, grid):
    """Riemann sum of mean_t int phi(t/n, lam) J(t/n, lam) dlam over grid,
    all rows of the pre-periodogram at once; exact to rounding when
    grid.size >= n + phi.lag_support."""
    x = np.asarray(getattr(x, "values", x), dtype=float)
    n = len(x)
    design = np.arange(1, n + 1) / n
    weights = phi.values(design[:, None], grid.nodes[None, :])
    return float(np.sum(weights * PrePeriodogram(x).evaluate_grid(grid)) * grid.weight / n)


def whittle_contrast(x, g, grid):
    """The local Whittle contrast with both parts summed over grid."""
    x = np.asarray(getattr(x, "values", x), dtype=float)
    n = len(x)
    design = np.arange(1, n + 1) / n
    functional = np.sum(PrePeriodogram(x).evaluate_grid(grid) / density(g, design, grid)) * grid.weight / n
    return float((np.mean(log_integral(g, design, grid)) + functional) / (4 * np.pi))


def kl_contrast(g, f, grid, cells):
    """The population contrast with log g and f/g summed over the mesh."""
    u = midpoints(cells)
    gv, fv = density(g, u, grid), density(f, u, grid)
    log_part = np.mean(np.sum(np.log(gv), axis=1) * grid.weight)
    functional = np.sum((1.0 / gv) * fv) * grid.weight / cells
    return float((log_part + functional) / (4 * np.pi))


def inverse_l2_distance(g, f, grid, cells):
    u = midpoints(cells)
    gv, fv = density(g, u, grid), density(f, u, grid)
    return float(np.sqrt(np.sum((1.0 / gv - 1.0 / fv) ** 2) * grid.weight / cells))


def divergence_sandwich(g, f, grid, cells):
    u = midpoints(cells)
    gv, fv = density(g, u, grid), density(f, u, grid)
    cell = grid.weight / cells
    ratio = fv / gv
    divergence = float(np.sum(np.log(1.0 / ratio) + ratio - 1.0) * cell / (4 * np.pi))
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


def spectral_functional_limit(phi, f, grid, cells):
    u = midpoints(cells)
    phiv = phi.values(u[:, None], grid.nodes[None, :])
    return float(np.sum(phiv * density(f, u, grid)) * grid.weight / cells)


def limit_covariance(phi_j, phi_k, f, grid, cells):
    u = midpoints(cells)
    lam = grid.nodes[None, :]
    pk = phi_k.values(u[:, None], lam) + phi_k.values(u[:, None], -lam)
    integrand = phi_j.values(u[:, None], lam) * pk * density(f, u, grid) ** 2
    return float(2 * np.pi * np.sum(integrand) * grid.weight / cells)
