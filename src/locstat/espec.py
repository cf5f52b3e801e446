"""Fluctuation studies for empirical spectral functionals.

Monte Carlo machinery around the centered functionals

    sqrt(n) ( mean_t int phi J dlam  -  center ),

with the center either the population functional (analytic centering) or the
Monte Carlo mean (mean centering), plus three closed-form references they
are checked against: exponential tail bounds for centered weighted
chi-square sums, the limiting covariance of the Gaussian central limit
theorem, and the exact finite-n mean of the functional.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import as_number, as_numbers
from .process import REPLICATION_CHUNK, _as_model, _covariance_band, ar_autocov, simulate_tvar_batch
from .spectral import _lag_functionals, _lag_index, _time_grid, spectral_functional_limit

__all__ = [
    "TailStudySpec",
    "chi2_tail_study",
    "clopper_pearson_upper",
    "tail_bound_quadratic",
    "tail_bound_linear",
    "SpectralProcessSample",
    "spectral_process_sample",
    "limit_covariance",
    "bias_scaling_study",
    "expected_functional_trace",
    "replication_seed",
]

UPPER_LEVEL = 0.99  # one-sided confidence level of clopper_pearson_upper, the tail rows' upper99
COVARIANCE_CELLS = 512  # midpoint cells in u of limit_covariance
# normals per chunk of chi2_tail_study, at most (one row if n is larger): 1 MB,
# so squaring and reducing a chunk reads it from a 2 MB per-core L2 cache
TAIL_CHUNK_VALUES = 1 << 17


def replication_seed(master, *indices):
    """Deterministic per-replication seed derived from (master, indices),
    each an integer >= 0; raises ValueError naming any other value."""
    entropy = [as_number(master, "seed", int, 0)] + [as_number(i, "index", int, 0) for i in indices]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass
class TailStudySpec:
    """Design of a weighted chi-square tail study.

    The statistic is S = n^{-1/2} sum_i lambda_i (Z_i^2 - 1) with iid
    standard normal Z and fixed positive weights lambda.
    """

    lambdas: np.ndarray
    replications: int
    etas: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.etas = np.array(as_numbers(self.etas, "etas", float))
        self.replications = as_number(self.replications, "replications", int, 1000)
        self.seed = as_number(self.seed, "seed", int, 0)
        if self.lambdas.ndim != 1 or self.lambdas.size == 0:
            raise ValueError("need a nonempty weight vector")
        if np.any(self.lambdas <= 0) or not np.all(np.isfinite(self.lambdas)):
            raise ValueError("weights must be positive and finite")
        if np.any(self.etas <= 0):
            raise ValueError("need positive thresholds")
        if np.any(np.diff(self.etas) <= 0):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def n(self):
        return len(self.lambdas)

    @classmethod
    def from_design(cls, design="unit", n=1024, replications=200000, etas=tuple(0.5 * k for k in range(1, 11)), seed=0):
        """The study of n weights of a named design: "unit", lambda_i = 1,
        or "linear", lambda_i = 1 + i/n for i = 1..n.  The default
        thresholds are the acceptance suite's."""
        # a tuple, not a dict: a list or object design is compared, not hashed
        if design not in ("unit", "linear"):
            raise ValueError(f"unknown design {design!r}")
        n = as_number(n, "n", int, 1)
        return cls(np.ones(n) if design == "unit" else 1.0 + np.arange(1, n + 1) / n, replications, etas, seed)


def clopper_pearson_upper(successes, trials):
    """One-sided upper confidence limit for a binomial proportion.

    The x with P(Bin(trials, x) <= successes) = 1 - level at level =
    UPPER_LEVEL, the level quantile of Beta(successes + 1, trials -
    successes), and 1.0 when every trial succeeded.  Newton steps on w(x) =
    sqrt(-2 log P(Bin(trials, x) <= successes)), which is close to linear in
    x in the upper tail, kept inside a bisection bracket (rtsafe, Press et
    al., Numerical Recipes 9.4).  Each
    step sums the binomial terms in O(1) memory from a saddle-point form of
    the largest one, accurate to rounding at any trial count, so the limit is
    within a few ulps of the exact quantile.

    Raises
    ------
    ValueError
        Unless successes and trials are integers with 0 <= successes <= trials
        and trials >= 1.
    """
    successes = as_number(successes, "successes", int, 0)
    trials = as_number(trials, "trials", int, 1)
    if successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if successes == trials:
        return 1.0
    if successes == 0:  # (1 - x)^trials = 1 - level
        return -math.expm1(math.log1p(-UPPER_LEVEL) / trials)
    target = math.sqrt(-2.0 * math.log1p(-UPPER_LEVEL))
    lo, hi = 0.0, 1.0
    x = (successes + 1) / (trials + 1)  # the mean of the beta law
    before_last = last = 1.0
    for _ in range(4000):  # bisection alone reaches any double in about 1100 halvings
        log_cdf, slope = _binomial_log_cdf(successes, trials, x)
        w = math.sqrt(-2.0 * log_cdf)
        if w < target:
            lo = x
        else:
            hi = x
        # dw/dx = -slope / w; both vanish where the cdf rounds to 1
        step = (w - target) * w / slope if slope < 0.0 else math.inf
        if abs(step) <= max(1e-10 * min(x, 1.0 - x), 2.0 * math.ulp(x)):
            return x + step
        new = x + step
        if not lo < new < hi or abs(step) > 0.5 * abs(before_last):
            new = 0.5 * (lo + hi)
            if not lo < new < hi:  # the bracket is two adjacent floats
                return x
        before_last, last, x = last, new - x, new
    raise ArithmeticError(f"no Clopper-Pearson limit found for {successes} of {trials}")


def _binomial_log_cdf(k, trials, x):
    """log P(Bin(trials, x) <= k) and its derivative in x, for 1 <= k < trials
    and k < (trials + 1) x: clopper_pearson_upper answers k = 0 and k = trials
    in closed form and never steps below its start (k + 1)/(trials + 1), where
    the tail exceeds 1 - UPPER_LEVEL.  Sums the terms from i = k down, as
    ratios to the one at k, until one falls below 1e-17 of the sum.
    """
    r = (1.0 - x) / x
    term = total = 1.0
    for i in range(k, 0, -1):
        term *= r * i / (trials - i + 1)
        total += term
        if term < 1e-17 * total:
            break
    return _log_binomial_pmf(k, trials, x) + math.log(total), -(trials - k) / ((1.0 - x) * total)


def _log_binomial_pmf(i, trials, x):
    """log P(Bin(trials, x) = i), 0 < i < trials, by Loader's saddle-point form,
    whose terms are all O(1) or smaller: no difference of two large log-gammas."""
    j = trials - i
    return (
        _stirling_error(trials)
        - _stirling_error(i)
        - _stirling_error(j)
        - _deviance(i, trials * x)
        - _deviance(j, trials * (1.0 - x))
        - 0.5 * math.log(2.0 * math.pi * i * j / trials)
    )


def _stirling_error(m):
    """log(m!) - log(sqrt(2 pi m) (m / e)^m) for an integer m >= 1."""
    if m <= 15:
        return math.lgamma(m + 1) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2.0 * math.pi)
    mm = m * m
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * mm)) / mm) / mm) / mm) / m


def _deviance(i, mean):
    """i log(i / mean) + mean - i, by its series in v = (i - mean) / (i + mean)
    near the mean, where the closed form cancels."""
    d = i - mean
    if abs(d) >= 0.1 * (i + mean):
        return i * math.log(i / mean) - d
    v = d / (i + mean)
    total, odd, v2 = d * v, 2.0 * i * v, v * v
    j = 3
    while True:
        odd *= v2
        new = total + odd / j
        if new == total:
            return total
        total, j = new, j + 2


def tail_bound_quadratic(eta, r_sq, l_max, n):
    """2 exp( -eta^2 / (8 (R^2 + L eta / sqrt(n))) ).

    The exponent is computed as -eta / (8 (R^2 / eta + L / sqrt(n))) in
    Python floats, where no eta^2 overflows and an overflowing quotient is
    inf, not an error: the bound is 0.0 for every large finite eta, and 2.0,
    its limit at 0, for an eta so small that R^2 / eta overflows."""
    eta = float(eta)
    return 2.0 * math.exp(-eta / (8.0 * (r_sq / eta + l_max / math.sqrt(n))))


def tail_bound_linear(eta, r_sq):
    """6 exp( -eta / (16 R) ) with R = sqrt(R^2)."""
    return 6.0 * math.exp(-eta / (16.0 * math.sqrt(r_sq)))


def chi2_tail_study(spec):
    """Empirical tail of S against its two exponential bounds.

    Simulates the replications in chunks from a single stream (deterministic
    in the seed) into one reused buffer of at most TAIL_CHUNK_VALUES normals
    (one replication if n is larger), where they are squared and reduced in
    place, so memory does not grow with the replication count.  The generator
    fills draws in order and each row is reduced in a fixed order, so the
    chunk size changes no draw and no bit of S.  Reports for each threshold
    the empirical exceedance probability, its 99% upper confidence limit, and
    the two closed-form bounds.

    Returns
    -------
    list of dict
        Keys: eta, exceedances, empirical, upper99, bound_quadratic,
        bound_linear.
    """
    if not isinstance(spec, TailStudySpec):
        raise ValueError("expected a TailStudySpec")
    lam = spec.lambdas
    n = spec.n
    r_sq = float(np.mean(lam ** 2))
    l_max = float(np.max(np.abs(lam)))
    rng = np.random.default_rng(spec.seed)

    counts = np.zeros(len(spec.etas), dtype=np.int64)
    buf = np.empty((min(max(1, TAIL_CHUNK_VALUES // n), spec.replications), n))
    remaining = spec.replications
    while remaining > 0:
        z = buf[: min(len(buf), remaining)]
        rng.standard_normal(out=z)
        np.multiply(z, z, out=z)
        z -= 1.0
        # einsum, not a BLAS product, whose rounding depends on the chunk's shape
        abs_s = np.abs(np.einsum("ij,j->i", z, lam) / math.sqrt(n))
        for i, eta in enumerate(spec.etas):
            counts[i] += int(np.count_nonzero(abs_s >= eta))
        remaining -= len(z)

    out = []
    for eta, k in zip(spec.etas, counts):
        out.append(
            {
                "eta": float(eta),
                "exceedances": int(k),
                "empirical": float(k / spec.replications),
                "upper99": clopper_pearson_upper(k, spec.replications),
                "bound_quadratic": tail_bound_quadratic(eta, r_sq, l_max, n),
                "bound_linear": tail_bound_linear(eta, r_sq),
            }
        )
    return out


@dataclass
class SpectralProcessSample:
    """Monte Carlo sample of a centered spectral functional.

    Attributes
    ----------
    functionals : ndarray
        Raw functional values, one per replication, ordered by replication.
    center : float
        The centering constant actually used.
    deviations : ndarray
        sqrt(n) (functional - center).
    centering : str
        "analytic" (population functional) or "mean" (Monte Carlo mean).
    """

    functionals: np.ndarray
    center: float
    deviations: np.ndarray
    centering: str
    n: int
    replications: int

    def variance(self):
        """Unbiased variance of the deviations."""
        return float(np.var(self.deviations, ddof=1))


def spectral_process_sample(model, phi, n=512, replications=2000, seed=0, centering="analytic"):
    """Simulate replications of the centered spectral functional.

    Each replication r simulates the model (its burn-in included) with a
    stream derived from (seed, r), evaluates the functional by the exact lag
    path, and centers either at the population functional of the model
    spectrum or at the Monte Carlo mean (computed with compensated summation,
    so the mean-centered deviations average to zero exactly up to rounding).
    The replications run as batches of :func:`simulate_tvar_batch`, with
    values bit-identical to one simulation per replication.

    Parameters
    ----------
    model : TvARModel
    phi : TestFunction
    n : int
    replications : int
    seed : int
    centering : {"analytic", "mean"}
    """
    n = as_number(n, "n", int, 1)
    replications = as_number(replications, "replications", int, 2)
    seed = as_number(seed, "seed", int, 0)
    if centering not in ("analytic", "mean"):
        raise ValueError(f"unknown centering {centering!r}")

    values = _functional_sample(model, phi, n, [replication_seed(seed, r) for r in range(replications)])

    if centering == "analytic":
        center = spectral_functional_limit(phi, model)
    else:
        center = math.fsum(values) / replications
    deviations = math.sqrt(n) * (values - center)
    return SpectralProcessSample(
        functionals=values,
        center=float(center),
        deviations=deviations,
        centering=centering,
        n=n,
        replications=replications,
    )


def _functional_sample(model, phi, n, seeds):
    """Lag-path spectral functional of one simulated series per seed.

    Simulates and reduces REPLICATION_CHUNK replications at a time, so memory
    stays O(REPLICATION_CHUNK n) however many seeds there are.
    """
    return np.concatenate(
        [
            _lag_functionals(simulate_tvar_batch(model, n, seeds[start : start + REPLICATION_CHUNK]), phi)
            for start in range(0, len(seeds), REPLICATION_CHUNK)
        ]
    )


def limit_covariance(phi_j, phi_k, f):
    """Limiting covariance of two centered spectral functionals.

    2 pi int_0^1 int phi_j(u, lam) { phi_k(u, lam) + phi_k(u, -lam) }
    f(u, lam)^2 dlam du, the Gaussian central-limit covariance for a true
    spectrum f.

    The frequency integral is exact: with C(u, m) = int f^2 e^{i lam m} dlam
    from :func:`~locstat.process.ar_autocov` it is (1/4 pi^2) sum_{a,b}
    c_j(u, a) c_k(u, b) { C(u, a + b) + C(u, a - b) } over the lag supports
    of the two weights.  The time integral is the midpoint rule of
    COVARIANCE_CELLS cells.

    Parameters
    ----------
    phi_j, phi_k : TestFunction
    f : TvARModel
    """
    model = _as_model(f)
    u = _time_grid(COVARIANCE_CELLS)
    Jj, Jk = phi_j.lag_support, phi_k.lag_support
    c_sq = ar_autocov(model, u, Jj + Jk, squared=True)
    cj, ck = phi_j.lags(u), phi_k.lags(u)
    total = sum(
        cj[:, abs(a)] * sum(ck[:, abs(b)] * (c_sq[:, abs(a + b)] + c_sq[:, abs(a - b)]) for b in range(-Jk, Jk + 1))
        for a in range(-Jj, Jj + 1)
    )
    return float(np.mean(total) / (2 * np.pi))


def bias_scaling_study(model, phi, n_list=(64, 128, 256, 512), replications=400, seed=0):
    """Bias of the mean functional against the population functional.

    For each n, estimates E[functional] by Monte Carlo and reports the
    scaled discrepancies sqrt(n) |mean - limit| and n |mean - limit| with
    the Monte Carlo standard error.  The expected-mean bias of the
    functional is O(1/n), so the n-scaled column stays bounded while the
    sqrt(n)-scaled one shrinks.

    Returns
    -------
    list of dict
        Keys: n, mean, limit, stderr, sqrt_n_bias, n_bias.
    """
    n_list = as_numbers(n_list, "n_list", int, 1)
    replications = as_number(replications, "replications", int, 2)
    seed = as_number(seed, "seed", int, 0)
    limit = spectral_functional_limit(phi, model)
    rows = []
    for n in n_list:
        seeds = [replication_seed(seed, n, r) for r in range(replications)]
        values = _functional_sample(model, phi, n, seeds)
        mean = math.fsum(values) / len(values)
        stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        rows.append(
            {
                "n": n,
                "mean": float(mean),
                "limit": float(limit),
                "stderr": stderr,
                "sqrt_n_bias": math.sqrt(n) * abs(mean - limit),
                "n_bias": n * abs(mean - limit),
            }
        )
    return rows


def expected_functional_trace(model, phi, n):
    """Exact expectation of the lag-path functional of a simulated series.

    E[x' M x] / (2 pi n) = tr(M Sigma) / (2 pi n) for the dense kernel M of
    phi and the covariance Sigma of the n values :func:`simulate_tvar` draws
    (with model.burn_in warm-up steps), summed lag by lag:
    sum_{|k|<=K} sum_t c_phi(t/n, -k) E[x_i x_j] / (2 pi n) over the pairs of
    the lag path, with E[x_i x_j] = C(max(i, j), |k|) from the simulator's
    own recursion.  Exact for every model and n; memory O((burn_in + n) max(K, p)).
    """
    n = as_number(n, "n", int, 1)
    K = min(phi.lag_support, n - 1)
    band = _covariance_band(model, n, K)
    table = phi.lags(np.arange(1, n + 1) / n)
    total = 0.0
    for k in range(-K, K + 1):
        t, i, j = _lag_index(n, k)
        # 2 pi divided out first: a flat weight on unit noise then sums ones, exactly n
        total += float(np.dot(table[t - 1, abs(k)] / (2 * np.pi), band[i if k >= 0 else j, abs(k)]))
    return total / n
