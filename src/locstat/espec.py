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
from .process import REPLICATION_CHUNK, _covariance_band, ar_autocov, as_field, simulate_tvar_batch
from .spectral import _lag_functionals, _lag_index, _time_grid, spectral_functional_limit

__all__ = [
    "TailStudySpec",
    "chi2_tail_study",
    "clopper_pearson_upper",
    "SpectralProcessSample",
    "spectral_process_sample",
    "limit_covariance",
    "bias_scaling_study",
    "expected_functional_trace",
    "replication_seed",
]

TAIL_CHUNK_ROWS = 20000  # replications per chunk of chi2_tail_study, at most
TAIL_CHUNK_VALUES = 1 << 20  # normals per chunk of chi2_tail_study, at most


def replication_seed(master, *indices):
    """Deterministic per-replication seed derived from (master, indices)."""
    seq = np.random.SeedSequence([int(master)] + [int(i) for i in indices])
    return int(seq.generate_state(1, np.uint64)[0])


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
    def unit_design(cls, n, replications, etas, seed=0):
        """lambda_i = 1 for all i."""
        return cls(np.ones(as_number(n, "n", int, 1)), replications, etas, seed)

    @classmethod
    def linear_design(cls, n, replications, etas, seed=0):
        """lambda_i = 1 + i/n for i = 1..n."""
        n = as_number(n, "n", int, 1)
        return cls(1.0 + np.arange(1, n + 1) / n, replications, etas, seed)


def clopper_pearson_upper(successes, trials, level=0.99):
    """One-sided upper confidence limit for a binomial proportion."""
    successes, trials = int(successes), int(trials)
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError("need 0 <= successes <= trials")
    if successes == trials:
        return 1.0
    # imported here: scipy.special costs about a third of a second to import,
    # which every locstat process would otherwise pay on start-up
    from scipy import special

    # the level quantile of Beta(successes + 1, trials - successes)
    return float(special.betaincinv(successes + 1, trials - successes, level))


def tail_bound_quadratic(eta, r_sq, l_max, n):
    """2 exp( -eta^2 / (8 (R^2 + L eta / sqrt(n))) )."""
    return 2.0 * math.exp(-(eta ** 2) / (8.0 * (r_sq + l_max * eta / math.sqrt(n))))


def tail_bound_linear(eta, r_sq):
    """6 exp( -eta / (16 R) ) with R = sqrt(R^2)."""
    return 6.0 * math.exp(-eta / (16.0 * math.sqrt(r_sq)))


def chi2_tail_study(spec):
    """Empirical tail of S against its two exponential bounds.

    Simulates the replications in chunks from a single stream (deterministic
    in the seed), at most TAIL_CHUNK_ROWS rows and TAIL_CHUNK_VALUES normals each,
    so memory does not grow with the replication count; the generator fills
    draws in order, so the chunk size changes no draw.  Reports for each
    threshold the empirical exceedance probability, its 99% upper confidence
    limit, and the two closed-form bounds.

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
    chunk = max(1, min(TAIL_CHUNK_ROWS, TAIL_CHUNK_VALUES // n))
    remaining = spec.replications
    while remaining > 0:
        rows = min(chunk, remaining)
        z = rng.standard_normal((rows, n))
        s = (z * z - 1.0) @ lam / math.sqrt(n)
        abs_s = np.abs(s)
        for i, eta in enumerate(spec.etas):
            counts[i] += int(np.count_nonzero(abs_s >= eta))
        remaining -= rows

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
    seed: int

    def variance(self):
        """Unbiased variance of the deviations."""
        return float(np.var(self.deviations, ddof=1))


def spectral_process_sample(
    model,
    phi,
    n,
    replications,
    seed,
    centering="analytic",
    u_grid_size=4096,
    burn_in=None,
):
    """Simulate replications of the centered spectral functional.

    Each replication r simulates the model with a stream derived from
    (seed, r), evaluates the functional by the exact lag path, and centers
    either at the population functional of the model spectrum or at the
    Monte Carlo mean (computed with compensated summation, so the mean-
    centered deviations average to zero exactly up to rounding).  The
    replications run as batches of :func:`simulate_tvar_batch`, with values
    bit-identical to one simulation per replication.

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

    values = _functional_sample(model, phi, n, [replication_seed(seed, r) for r in range(replications)], burn_in)

    if centering == "analytic":
        center = spectral_functional_limit(phi, model, u_grid_size=u_grid_size)
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
        seed=seed,
    )


def _functional_sample(model, phi, n, seeds, burn_in=None):
    """Lag-path spectral functional of one simulated series per seed.

    Simulates and reduces REPLICATION_CHUNK replications at a time, so memory
    stays O(REPLICATION_CHUNK n) however many seeds there are.
    """
    return np.concatenate(
        [
            _lag_functionals(simulate_tvar_batch(model, n, seeds[start : start + REPLICATION_CHUNK], burn_in), phi)
            for start in range(0, len(seeds), REPLICATION_CHUNK)
        ]
    )


def limit_covariance(phi_j, phi_k, f, u_grid_size=512):
    """Limiting covariance of two centered spectral functionals.

    2 pi int_0^1 int phi_j(u, lam) { phi_k(u, lam) + phi_k(u, -lam) }
    f(u, lam)^2 dlam du, the Gaussian central-limit covariance for a true
    spectrum f.

    The frequency integral is exact: with C(u, m) = int f^2 e^{i lam m} dlam
    from :func:`~locstat.process.ar_autocov` it is (1/4 pi^2) sum_{a,b}
    c_j(u, a) c_k(u, b) { C(u, a + b) + C(u, a - b) } over the lag supports
    of the two weights.  The time integral is the midpoint rule.

    Parameters
    ----------
    phi_j, phi_k : TestFunction
    f : SpectrumField or TvARModel
    u_grid_size : int
        Midpoint rule resolution in rescaled time, >= 1.
    """
    model = as_field(f).ar_model
    u = _time_grid(u_grid_size)
    Jj, Jk = phi_j.lag_support, phi_k.lag_support
    c_sq = ar_autocov(model, u, Jj + Jk, squared=True)
    ck = {b: phi_k.lag(u, b) for b in range(-Jk, Jk + 1)}
    total = sum(
        phi_j.lag(u, a) * sum(c * (c_sq[:, abs(a + b)] + c_sq[:, abs(a - b)]) for b, c in ck.items())
        for a in range(-Jj, Jj + 1)
    )
    return float(np.mean(total) / (2 * np.pi))


def bias_scaling_study(model, phi, n_list, replications, seed, u_grid_size=4096):
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
    limit = spectral_functional_limit(phi, model, u_grid_size=u_grid_size)
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
    n = int(n)
    K = min(phi.lag_support, n - 1)
    band = _covariance_band(model, n, K)
    total = 0.0
    for k in range(-K, K + 1):
        t, i, j = _lag_index(n, k)
        # 2 pi divided out first: a flat weight on unit noise then sums ones, exactly n
        total += float(np.dot(phi.lag(t / n, -k) / (2 * np.pi), band[i if k >= 0 else j, abs(k)]))
    return total / n
