"""Frequency-mesh oracles for the exact spectral paths of locstat.

Each function evaluates the spectra of its TvARModels through
``process.spectral_density`` on the mesh of a midpoint u-grid of
``cells`` cells times the nodes of a FrequencyGrid, and sums the integrand
there.  This is the slow path that every exact path of the library (lag
sums, the Kolmogorov identity, the separable sandwich) must reproduce to
rounding, on any grid fine enough to integrate the integrand exactly.
"""

import numpy as np

from locstat import process
from locstat.spectral import PrePeriodogram


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
