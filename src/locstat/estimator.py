"""Quasi-likelihood fitting of time-varying AR models.

Two sieves are provided for the innovation variance:

- fit_monotone_tvar alternates weighted least squares for constant AR
  coefficients with the isotonic sieve variance step, driving the
  conditional Gaussian likelihood downhill (each half step is an exact
  minimizer of the objective over its own block, so the trace never
  increases);
- fit_fourier_tvar profiles the variance out of the exact Whittle contrast
  for an order-1 model with a trigonometric-polynomial coefficient curve;
  what remains is a convex quadratic in the curve coefficients, minimized
  by one linear solve (a small QP when the stability bound is active).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curves import Curve, FourierCurve, MonotoneStepCurve, as_number
from .isotonic import sieve_pava
from .likelihood import _inverse_distance_sq, conditional_likelihood
from .process import STABILITY_GRID, check_stability
from .spectral import _series_values, _time_grid

__all__ = [
    "DegenerateDataError",
    "FitConfig",
    "FitResult",
    "FourierFitResult",
    "wls_ar",
    "fit_monotone_tvar",
    "fit_fourier_tvar",
    "inverse_l2_distance",
    "curve_inverse_l2_distance",
]


class DegenerateDataError(ValueError):
    """Raised when the data cannot identify the requested fit."""


FOURIER_MARGIN = 1e-9  # a constrained Fourier fit keeps |alpha| <= 1 - FOURIER_MARGIN everywhere


def default_knots(n):
    """Sieve size ceil(n^{1/3} (log n)^{-2/3})."""
    n = as_number(n, "n", int, 2)
    return max(1, math.ceil(n ** (1.0 / 3.0) / math.log(n) ** (2.0 / 3.0)))

def default_eps(n):
    """Bound parameter (log n)^{-1/5}; requires log n > 1."""
    n = as_number(n, "n", int, 3)
    return math.log(n) ** -0.2


@dataclass
class FitConfig:
    """Configuration of the alternating monotone-variance fit.

    Attributes
    ----------
    p : int
        AR order.
    k_n : int or None
        Sieve size; None selects ceil(n^{1/3} (log n)^{-2/3}).
    eps : float or None
        Bound parameter in (0, 1); None selects (log n)^{-1/5}.
    max_iter : int
        Maximum number of full (WLS + PAVA) iterations.
    rel_tol : float
        Stop when the objective decrease falls below
        rel_tol * max(1, |previous|).
    """

    p: int = 1
    k_n: int | None = None
    eps: float | None = None
    max_iter: int = 100
    rel_tol: float = 1e-8

    def __post_init__(self):
        self.p = as_number(self.p, "p", int, 0)
        self.max_iter = as_number(self.max_iter, "max_iter", int, 1)
        self.rel_tol = as_number(self.rel_tol, "rel_tol", float)
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.eps is not None:
            self.eps = as_number(self.eps, "eps", float)
            if not 0.0 < self.eps < 1.0:
                raise ValueError("eps must lie in (0, 1)")
        if self.k_n is not None:
            self.k_n = as_number(self.k_n, "k_n", int, 1)

    def resolve(self, n):
        """Concrete (k_n, eps) for a sample size."""
        k = self.k_n if self.k_n is not None else default_knots(n)
        e = self.eps if self.eps is not None else default_eps(n)
        return k, e


@dataclass
class FitResult:
    """Outcome of fit_monotone_tvar.

    objective_trace holds the conditional likelihood after each full
    iteration, starting with the value at the initial (alpha = 0) point;
    wls_trace / pava_trace hold the half-step values per iteration.
    """

    alpha_hat: np.ndarray
    sigma2_hat: MonotoneStepCurve
    objective_trace: list = field(default_factory=list)
    wls_trace: list = field(default_factory=list)
    pava_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    alpha_stable: bool = True
    k_n: int = 0
    eps: float = 0.0

    @property
    def objective(self):
        return self.objective_trace[-1]

    @property
    def knots_at_lower(self):
        """Number of sigma2_hat knots on the lower bound eps^2."""
        return int(np.count_nonzero(self.sigma2_hat.knot_values <= self.sigma2_hat.lower))

    @property
    def knots_at_upper(self):
        """Number of sigma2_hat knots on the upper bound 1/eps^2."""
        return int(np.count_nonzero(self.sigma2_hat.knot_values >= self.sigma2_hat.upper))


def wls_ar(series, sigma2, p):
    """Weighted least squares for constant AR coefficients.

    Minimizes sum_{t>p} (x_t + sum_j a_j x_{t-j})^2 / sigma^2(t/n) and
    returns the coefficient vector.  The fitted residuals are orthogonal to
    the weighted lagged regressors.

    Parameters
    ----------
    series : TimeSeries or array_like
    sigma2 : Curve or positive float
        Weight curve; observation t gets weight 1/sigma^2(t/n).
    p : int
        Order, >= 0 (order 0 returns an empty vector).

    Raises
    ------
    DegenerateDataError
        If the weighted normal equations are singular (constant-zero series).
    """
    x = _series_values(series)
    p = as_number(p, "p", int, 0)
    if p == 0:
        return np.zeros(0)
    n = len(x)
    if n <= p:
        raise ValueError(f"need more than p={p} observations")
    if isinstance(sigma2, Curve):
        w = 1.0 / sigma2.values(np.arange(p + 1, n + 1) / n)
    else:
        w = np.full(n - p, 1.0 / float(sigma2))
    if np.min(w) <= 0 or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive and finite")

    lags = np.column_stack([x[p - j : n - j] for j in range(1, p + 1)])
    target = x[p:]
    # einsum, not a BLAS product: a threaded GEMM on these thin matrices is
    # slower, and its rounding depends on the thread count
    A = np.einsum("ti,t,tj->ij", lags, w, lags)
    b = -np.einsum("ti,t,t->i", lags, w, target)
    try:
        coef = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise DegenerateDataError("normal equations are singular") from None
    if not np.all(np.isfinite(coef)):
        raise DegenerateDataError("normal equations are numerically singular")
    return coef


def fit_monotone_tvar(series, config=None, sigma2_init=None):
    """Alternating fit of constant AR coefficients and a monotone variance.

    Starts from the sieve-isotonized squared data (the alpha = 0 residuals,
    or sigma2_init when given), then repeats: (i) weighted least squares for
    alpha with the current variance as weights, (ii) the sieve variance step
    on the new squared residuals.  Both half steps minimize the conditional
    likelihood exactly over their blocks, so the objective trace is
    nonincreasing.  The run is a pure function of (series, config,
    sigma2_init).

    Parameters
    ----------
    series : TimeSeries or array_like
    config : FitConfig, optional
    sigma2_init : MonotoneStepCurve, optional
        Warm start for the variance curve.

    Returns
    -------
    FitResult
    """
    config = config or FitConfig()
    x = _series_values(series)
    n = len(x)
    p = config.p
    if n <= p:
        raise ValueError(f"need more than p={p} observations")
    k_n, eps = config.resolve(n)

    def residuals(alpha):
        r = x[p:].copy()
        for j in range(1, p + 1):
            r += alpha[j - 1] * x[p - j : n - j]
        return r

    alpha = np.zeros(p)
    if sigma2_init is None:
        sigma = sieve_pava(residuals(alpha) ** 2, n, p, k_n, eps)
    else:
        sigma = sigma2_init
    current = conditional_likelihood(x, alpha, sigma)

    result = FitResult(
        alpha_hat=alpha,
        sigma2_hat=sigma,
        objective_trace=[current],
        k_n=k_n,
        eps=eps,
    )

    for it in range(1, config.max_iter + 1):
        if p:
            alpha = wls_ar(x, sigma, p)
        after_wls = conditional_likelihood(x, alpha, sigma)
        sigma = sieve_pava(residuals(alpha) ** 2, n, p, k_n, eps)
        after_pava = conditional_likelihood(x, alpha, sigma)
        result.wls_trace.append(after_wls)
        result.pava_trace.append(after_pava)
        result.objective_trace.append(after_pava)
        result.iterations = it
        if current - after_pava <= config.rel_tol * max(1.0, abs(current)):
            result.converged = True
            current = after_pava
            break
        current = after_pava

    result.alpha_hat = alpha
    result.sigma2_hat = sigma
    result.alpha_stable = check_stability(alpha)
    return result


class FourierFitResult(NamedTuple):
    alpha_curve: FourierCurve
    sigma2: float
    objective: float
    constrained: bool
    converged: bool


def _fourier_basis(u, k_n):
    """Columns 1, cos(2 pi j u), sin(2 pi j u) for j = 1..k_n, in the
    coefficient order (a_0, a_1, b_1, ..., a_k, b_k)."""
    cols = [np.ones(u.shape)]
    for j in range(1, k_n + 1):
        cols += [np.cos(2 * np.pi * j * u), np.sin(2 * np.pi * j * u)]
    return np.column_stack(cols)


def fit_fourier_tvar(series, k_n=1, eps=None):
    """Order-1 fit with a trigonometric coefficient curve and constant variance.

    The candidate curve is alpha(u) = a_0 + sum_{j<=k_n} a_j cos(2 pi j u)
    + b_j sin(2 pi j u).  The constant variance is profiled out of the exact
    Whittle contrast, s^2 = clip(qbar, eps^2, 1/eps^2) with qbar = n^{-1}
    (sum (1 + alpha_t^2) x_t^2 + 2 sum alpha_t x_t x_{t+1}).  The profiled
    objective increases in qbar, a convex quadratic in the curve
    coefficients theta, so the fit is one linear solve for theta.  Only when
    that solution reaches room = (1 - FOURIER_MARGIN)(1 - (pi k_n /
    STABILITY_GRID)^2 / 2) on a check node u = j / STABILITY_GRID of
    TvARModel.validate is a small QP solved, |alpha| <= room on those nodes,
    started from the admissible theta = 0.  Either way sup |alpha| <= 1 -
    FOURIER_MARGIN on all of [0, 1]: at a maximum of |alpha| the derivative
    vanishes and |alpha''| <= (2 pi k_n)^2 sup |alpha| (Bernstein), so the
    nearest node reads at least room / (1 - FOURIER_MARGIN) of the sup.

    Parameters
    ----------
    series : TimeSeries or array_like
    k_n : int
        Trigonometric order of the coefficient curve, >= 0.
    eps : float, optional
        Variance bound parameter; defaults to (log n)^{-1/5}.

    Returns
    -------
    FourierFitResult
        constrained is True when the bound on the check nodes is active;
        converged is the QP's success flag then, and True otherwise.

    Raises
    ------
    DegenerateDataError
        If the normal matrix is singular or not finite (a zero series, or one
        whose squares overflow).
    """
    x = _series_values(series)
    n = len(x)
    k_n = as_number(k_n, "k_n", int, 0)
    if n < 8 * (k_n + 1):
        raise ValueError("series too short for the requested curve order")
    room = (1.0 - FOURIER_MARGIN) * (1.0 - 0.5 * (np.pi * k_n / STABILITY_GRID) ** 2)
    if room <= 0:
        raise ValueError("curve order too high for the check nodes")
    if eps is None:
        eps = default_eps(n)
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")

    # n qbar = sum x_t^2 + theta' hess theta + 2 grad' theta
    xx = x * x
    cross = x[:-1] * x[1:]
    basis = _fourier_basis(np.arange(1, n + 1) / n, k_n)
    hess = np.einsum("ti,t,tj->ij", basis, xx, basis)  # no threaded GEMM, as in wls_ar
    grad = basis.T @ np.append(cross, 0.0)
    try:
        theta = np.linalg.solve(hess, -grad)
        if not np.all(np.isfinite(theta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise DegenerateDataError("normal matrix of the Fourier fit is singular or not finite") from None

    check = _fourier_basis(np.arange(1, STABILITY_GRID + 1) / STABILITY_GRID, k_n)
    constrained = bool(np.max(np.abs(check @ theta)) >= room)
    converged = True
    if constrained:
        # imported here: scipy.optimize takes most of a second to import
        from scipy.optimize import minimize

        # scaled by sum x^2 so that the QP's objective is of order one
        h, g = hess / np.sum(xx), grad / np.sum(xx)
        qp = minimize(
            lambda th: 0.5 * th @ h @ th + g @ th,
            np.zeros(theta.size),
            jac=lambda th: h @ th + g,
            method="SLSQP",
            constraints=[
                {"type": "ineq", "fun": lambda th: room - check @ th, "jac": lambda th: -check},
                {"type": "ineq", "fun": lambda th: room + check @ th, "jac": lambda th: check},
            ],
            options={"ftol": 1e-15},  # the default 1e-6 stops up to 1e-5 above the optimum
        )
        theta, converged = qp.x, bool(qp.success)

    a_t = basis @ theta
    qbar = (np.sum((1.0 + a_t ** 2) * xx) + 2.0 * np.sum(a_t[:-1] * cross)) / n
    s2 = min(max(qbar, eps ** 2), 1.0 / eps ** 2)
    objective = 0.5 * np.log(s2) - 0.5 * np.log(2 * np.pi) + qbar / (2 * s2)
    curve = FourierCurve(theta[0], theta[1::2], theta[2::2])
    return FourierFitResult(curve, float(s2), float(objective), constrained, converged)


def inverse_l2_distance(g, f, u_grid_size=512):
    """L2 distance of the inverse spectra on (0,1] x [-pi, pi].

    sqrt( int int (1/g - 1/f)^2 dlam du ) for two SpectrumFields or
    TvARModels, the time integral a midpoint rule with u_grid_size cells.
    The frequency integral is an exact lag sum; it equals the mesh sum on
    any frequency grid with more than 2p nodes.
    """
    return float(np.sqrt(_inverse_distance_sq(g, f, u_grid_size)))


def curve_inverse_l2_distance(c1, c2, u_grid_size=4096):
    """L2 distance of inverse curves, sqrt( 2 pi int (1/c1 - 1/c2)^2 du ).

    The 2 pi factor makes a time-only function comparable with the
    time-frequency distance above (constant in frequency).
    """
    u = _time_grid(u_grid_size)
    v1 = c1.values(u) if isinstance(c1, Curve) else np.full(u.shape, float(c1))
    v2 = c2.values(u) if isinstance(c2, Curve) else np.full(u.shape, float(c2))
    if np.min(v1) <= 0 or np.min(v2) <= 0:
        raise ValueError("curves must be strictly positive")
    return float(np.sqrt(2 * np.pi * np.mean((1.0 / v1 - 1.0 / v2) ** 2)))
