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

from .curves import FourierCurve, MonotoneStepCurve, _as_curve, _check_eps, as_number
from .isotonic import sieve_pava
from .likelihood import _conditional, _inverse_distance_sq, _residuals
from .process import STABILITY_GRID, check_stability
from .spectral import _series_values, _time_grid

__all__ = [
    "DegenerateDataError",
    "FitResult",
    "FourierFitResult",
    "default_knots",
    "default_eps",
    "fit_monotone_tvar",
    "fit_fourier_tvar",
    "inverse_l2_distance",
    "curve_inverse_l2_distance",
]


class DegenerateDataError(ValueError):
    """Raised when the data cannot identify the requested fit."""


FOURIER_MARGIN = 1e-9  # a constrained Fourier fit keeps |alpha| <= 1 - FOURIER_MARGIN everywhere
DISTANCE_CELLS = 2048  # midpoint cells in u of the inverse-spectrum distances, the rate study's errors


def default_knots(n):
    """Sieve size ceil(n^{1/3} (log n)^{-2/3})."""
    n = as_number(n, "n", int, 2)
    return max(1, math.ceil(n ** (1.0 / 3.0) / math.log(n) ** (2.0 / 3.0)))

def default_eps(n):
    """Bound parameter (log n)^{-1/5}; requires log n > 1."""
    n = as_number(n, "n", int, 3)
    return math.log(n) ** -0.2


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
    iterations: int = 0
    converged: bool = False
    alpha_stable: bool = True
    k_n: int = 0
    eps: float = 0.0

    @property
    def objective(self):
        return self.objective_trace[-1]

    @property
    def pava_trace(self):
        """The value after each iteration's sieve step, which ends it."""
        return self.objective_trace[1:]

    @property
    def knots_at_lower(self):
        """Number of sigma2_hat knots on the lower bound eps^2."""
        return int(np.count_nonzero(self.sigma2_hat.knot_values <= self.sigma2_hat.lower))

    @property
    def knots_at_upper(self):
        """Number of sigma2_hat knots on the upper bound 1/eps^2."""
        return int(np.count_nonzero(self.sigma2_hat.knot_values >= self.sigma2_hat.upper))


def _lag_matrix(x, p):
    """The regressors of _wls in the alpha step of fit_monotone_tvar: columns
    x_{t-1}, ..., x_{t-p} for t = p+1..n."""
    n = len(x)
    return np.column_stack([x[p - j : n - j] for j in range(1, p + 1)])


def _wls(lags, target, w):
    """The coefficients that minimize sum_t w_t (target_t + lags_t a)^2."""
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


def fit_monotone_tvar(series, p=1, k_n=None, eps=None, max_iter=100, rel_tol=1e-8):
    """Alternating fit of constant AR coefficients and a monotone variance.

    Starts from the sieve-isotonized squared data (the alpha = 0 residuals),
    then repeats: (i) weighted least squares for alpha with the current
    variance as weights, (ii) the sieve variance step on the new squared
    residuals.  Both half steps minimize the conditional likelihood exactly
    over their blocks, so the objective trace is nonincreasing.  Each
    iteration forms the squared residuals and the variances on the design
    points once.  The run is a pure function of its arguments.

    Parameters
    ----------
    series : TimeSeries or array_like
    p : int
        AR order.
    k_n : int or None
        Sieve size; None selects default_knots(n) = ceil(n^{1/3} (log n)^{-2/3}).
    eps : float or None
        Bound parameter in (0, 1); None selects default_eps(n) = (log n)^{-1/5}.
    max_iter : int
        Maximum number of full (WLS + PAVA) iterations.
    rel_tol : float
        Stop when the objective decrease falls below
        rel_tol * max(1, |previous|).

    Returns
    -------
    FitResult
        Its k_n and eps are the values the fit used.

    Raises
    ------
    ValueError
        On a bad keyword, before the series is read, or a series too short.
    """
    p = as_number(p, "p", int, 0)
    max_iter = as_number(max_iter, "max_iter", int, 1)
    rel_tol = as_number(rel_tol, "rel_tol", float)
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if eps is not None:
        eps = _check_eps(eps)
    if k_n is not None:
        k_n = as_number(k_n, "k_n", int, 1)
    x = _series_values(series)
    n = len(x)
    if n <= p:
        raise ValueError(f"need more than p={p} observations")
    k_n = k_n if k_n is not None else default_knots(n)
    eps = eps if eps is not None else default_eps(n)

    u = np.arange(p + 1, n + 1) / n
    lags = _lag_matrix(x, p) if p else None
    alpha = np.zeros(p)
    e2 = _residuals(x, alpha) ** 2
    sigma = sieve_pava(e2, n, k_n, eps)
    s2 = sigma.values(u)
    current = _conditional(e2, s2, n)

    result = FitResult(
        alpha_hat=alpha,
        sigma2_hat=sigma,
        objective_trace=[current],
        k_n=k_n,
        eps=eps,
    )

    for it in range(1, max_iter + 1):
        if p:
            alpha = _wls(lags, x[p:], 1.0 / s2)
        e2 = _residuals(x, alpha) ** 2
        after_wls = _conditional(e2, s2, n)
        sigma = sieve_pava(e2, n, k_n, eps)
        s2 = sigma.values(u)
        after_pava = _conditional(e2, s2, n)
        result.wls_trace.append(after_wls)
        result.objective_trace.append(after_pava)
        result.iterations = it
        if current - after_pava <= rel_tol * max(1.0, abs(current)):
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


def _stability_qp(hess, grad, check, room):
    """min 1/2 theta' hess theta + grad' theta subject to |check theta| <= room.

    The primal active-set method (Nocedal & Wright, Numerical Optimization,
    Algorithm 16.3) from the feasible theta = 0, for positive definite hess.
    Each step solves the KKT system of the problem with the constraints of the
    working set W held as equalities.  It stops at the first constraint
    outside W that it would cross, which then joins W; after a full step,
    theta is optimal if every multiplier of W is >= 0, and otherwise the
    constraint with the most negative one leaves W.

    Returns
    -------
    (theta, constrained, converged)
        constrained is True when a bound is active at theta (W ends
        nonempty); converged is True when theta satisfies the KKT
        conditions, False if the steps ran out first.
    """
    normals = np.vstack([check, -check])  # normals @ theta <= room
    theta = np.zeros(hess.shape[0])
    work = []
    for _ in range(2 * len(normals)):
        a = normals[work]
        kkt = np.block([[hess, a.T], [a, np.zeros((len(work), len(work)))]])
        solution = np.linalg.solve(kkt, np.concatenate([-(hess @ theta + grad), np.zeros(len(work))]))
        step, multipliers = solution[: theta.size], solution[theta.size :]
        rate = normals @ step
        rate[work] = 0.0
        blocking = np.flatnonzero(rate > 0.0)
        # the slack is clipped at 0, as rounding can leave theta an ulp outside a constraint
        ratios = np.maximum(room - normals[blocking] @ theta, 0.0) / rate[blocking]
        if ratios.size and ratios.min() < 1.0:
            j = int(np.argmin(ratios))
            theta = theta + ratios[j] * step
            work.append(int(blocking[j]))
        else:
            theta = theta + step
            if not work or multipliers.min() >= 0.0:
                return theta, bool(work), True
            work.pop(int(np.argmin(multipliers)))
    return theta, bool(work), False


def fit_fourier_tvar(series, k_n=1):
    """Order-1 fit with a trigonometric coefficient curve and constant variance.

    The candidate curve is alpha(u) = a_0 + sum_{j<=k_n} a_j cos(2 pi j u)
    + b_j sin(2 pi j u).  The constant variance is profiled out of the exact
    Whittle contrast, s^2 = clip(qbar, eps^2, 1/eps^2) with eps =
    (log n)^{-1/5} and qbar = n^{-1}
    (sum (1 + alpha_t^2) x_t^2 + 2 sum alpha_t x_t x_{t+1}).  The profiled
    objective increases in qbar, a convex quadratic in the curve
    coefficients theta, so the fit is the small QP of minimizing it subject
    to |alpha| <= room = (1 - FOURIER_MARGIN)(1 - (pi k_n / STABILITY_GRID)^2
    / 2) on the check nodes u = j / STABILITY_GRID of TvARModel.validate,
    solved by an active-set method started from the admissible theta = 0.
    Its first step is the one linear solve of the unconstrained fit, which
    is the answer when it stays below room on every node.  The fitted curve
    has sup |alpha| <= 1 - FOURIER_MARGIN on all of [0, 1]: at a maximum of
    |alpha| the derivative vanishes and |alpha''| <= (2 pi k_n)^2 sup |alpha|
    (Bernstein), so the nearest node reads at least room / (1 -
    FOURIER_MARGIN) of the sup.

    Parameters
    ----------
    series : TimeSeries or array_like
    k_n : int
        Trigonometric order of the coefficient curve, >= 0.

    Returns
    -------
    FourierFitResult
        constrained is True when the bound on the check nodes is active;
        converged says whether theta satisfies the QP's KKT conditions.

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
    eps = default_eps(n)

    # n qbar = sum x_t^2 + theta' hess theta + 2 grad' theta
    xx = x * x
    cross = x[:-1] * x[1:]
    basis = _fourier_basis(np.arange(1, n + 1) / n, k_n)
    hess = np.einsum("ti,t,tj->ij", basis, xx, basis)  # no threaded GEMM, as in _wls
    grad = basis.T @ np.append(cross, 0.0)
    check = _fourier_basis(np.arange(1, STABILITY_GRID + 1) / STABILITY_GRID, k_n)
    try:
        theta, constrained, converged = _stability_qp(hess, grad, check, room)
        if not np.all(np.isfinite(theta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise DegenerateDataError("normal matrix of the Fourier fit is singular or not finite") from None

    a_t = basis @ theta
    qbar = (np.sum((1.0 + a_t ** 2) * xx) + 2.0 * np.sum(a_t[:-1] * cross)) / n
    s2 = min(max(qbar, eps ** 2), 1.0 / eps ** 2)
    objective = 0.5 * np.log(s2) - 0.5 * np.log(2 * np.pi) + qbar / (2 * s2)
    curve = FourierCurve(theta[0], theta[1::2], theta[2::2])
    return FourierFitResult(curve, float(s2), float(objective), constrained, converged)


def inverse_l2_distance(g, f):
    """L2 distance of the inverse spectra on (0,1] x [-pi, pi].

    sqrt( int int (1/g - 1/f)^2 dlam du ) for two TvARModels, the time
    integral a midpoint rule with DISTANCE_CELLS cells.
    The frequency integral is an exact lag sum; it equals the mesh sum on
    any frequency grid with more than 2p nodes.
    """
    return float(np.sqrt(_inverse_distance_sq(g, f, DISTANCE_CELLS)))


def curve_inverse_l2_distance(c1, c2):
    """L2 distance of inverse curves, sqrt( 2 pi int (1/c1 - 1/c2)^2 du ).

    The 2 pi factor makes a time-only function comparable with the
    time-frequency distance above (constant in frequency); the time integral
    is a midpoint rule with DISTANCE_CELLS cells.
    """
    u = _time_grid(DISTANCE_CELLS)
    v1, v2 = _as_curve(c1).values(u), _as_curve(c2).values(u)
    if np.min(v1) <= 0 or np.min(v2) <= 0:
        raise ValueError("curves must be strictly positive")
    return float(np.sqrt(2 * np.pi * np.mean((1.0 / v1 - 1.0 / v2) ** 2)))
