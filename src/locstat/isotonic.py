"""Isotonic regression machinery for the sieve variance estimator.

The variance step of the alternating fit minimizes

    sum_t w_t { log y_t + x_t / y_t }

over nondecreasing y.  Because the pooled minimizer of this objective on a
block is the weighted mean of the block's x values, the solution coincides
with weighted least-squares isotonic regression and is computed in linear
time by pool-adjacent-violators, equivalently as the right derivative of the
greatest convex minorant of the cumulative sum diagram.
"""

import numpy as np

from .curves import MonotoneStepCurve, _check_eps, as_number

__all__ = [
    "pava_monotone",
    "sieve_pava",
]


def _pool(values, weights):
    """Stack-based pool-adjacent-violators; returns the pooled means."""
    # stack rows: [weight, weighted sum, count]
    w_stack = []
    s_stack = []
    c_stack = []
    for v, w in zip(values, weights):
        w_stack.append(float(w))
        s_stack.append(float(w) * float(v))
        c_stack.append(1)
        while len(w_stack) > 1 and s_stack[-2] / w_stack[-2] >= s_stack[-1] / w_stack[-1]:
            w_stack[-2] += w_stack[-1]
            s_stack[-2] += s_stack[-1]
            c_stack[-2] += c_stack[-1]
            del w_stack[-1], s_stack[-1], c_stack[-1]
    return np.repeat(np.divide(s_stack, w_stack), c_stack)


def pava_monotone(values, weights=None):
    """Weighted isotonic fit of nonnegative values.

    Minimizes both sum w (y - x)^2 and sum w (log y + x/y) over nondecreasing
    y (the two objectives share their pooled-mean minimizer).  Preserves the
    weighted mean exactly and is idempotent.

    Parameters
    ----------
    values : array_like
        Nonnegative observations.
    weights : array_like, optional
        Positive weights, default all ones.

    Returns
    -------
    ndarray
        Fitted value for each input position, nondecreasing.  Adjacent pooled
        blocks have strictly increasing means, so each level set of the fit is
        one block.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a nonempty 1-d array of values")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("values must be nonnegative and finite")
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != values.shape:
            raise ValueError("weights must match values")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")
    return _pool(values, weights)


def sieve_pava(squared_residuals, n, p, k_n, eps):
    """Monotone variance estimate on a k_n-knot sieve.

    Aggregates the squared residuals e_{p+1}^2, ..., e_n^2 into the chunks
    induced by the knot grid t(j) = floor(n j / k_n), isotonizes the chunk
    means by PAVA (which minimizes the Gaussian likelihood objective over the
    sieve), and applies the bound [eps^2, 1/eps^2].

    Parameters
    ----------
    squared_residuals : array_like
        Nonnegative, length n - p, ordered by t.
    n : int
        Sample size.
    p : int
        AR order (residuals start at t = p + 1).
    k_n : int
        Number of knots, >= 1.
    eps : float
        Bound parameter in (0, 1).

    Returns
    -------
    MonotoneStepCurve
        Total on (0, 1]; knots before the first admissible design point copy
        the first fitted value.
    """
    sq = np.asarray(squared_residuals, dtype=float)
    n = as_number(n, "n", int, 1)
    p = as_number(p, "p", int, 0)
    k_n = as_number(k_n, "k_n", int, 1)
    eps = _check_eps(eps)
    if n <= p:
        raise ValueError(f"need n > p, got n = {n} and p = {p}")
    if sq.ndim != 1 or sq.size != n - p:
        raise ValueError(f"expected {n - p} squared residuals, got {sq.size}")
    if np.any(sq < 0) or not np.all(np.isfinite(sq)):
        raise ValueError("squared residuals must be nonnegative and finite")

    jmin = (k_n * (p + 1) + n - 1) // n
    if jmin > k_n:
        raise ValueError("sieve has no admissible knots")
    js = np.arange(jmin, k_n + 1)
    # floor, not ceil: chunk j must be exactly {t : t/n in ((j-1)/k_n, j/k_n]},
    # the set of design points the step curve evaluates with knot j's value;
    # otherwise PAVA is not the exact minimizer of the evaluated objective.
    t_of_j = (n * js) // k_n

    cum = np.concatenate([[0.0], np.cumsum(sq)])
    counts = np.diff(np.concatenate([[p], t_of_j]))
    keep = counts > 0
    kept_t = t_of_j[keep]
    kept_counts = counts[keep].astype(float)
    sums = np.diff(np.concatenate([[0.0], cum[kept_t - p]]))
    means = sums / kept_counts

    fit = pava_monotone(means, kept_counts)
    # map fitted chunk values back to every knot j >= jmin
    owner = np.searchsorted(kept_t, t_of_j)
    vals = np.clip(fit[owner], eps ** 2, 1.0 / eps ** 2)

    full = np.concatenate([np.full(jmin - 1, vals[0]), vals])
    return MonotoneStepCurve(full, eps)
