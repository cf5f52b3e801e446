"""Monte Carlo studies and reproducible output files.

Every study is one keyword call whose signature holds each of its parameters
and defaults, and a pure function of them (model, sizes, replication count,
master seed): each replication draws from a stream derived from
(seed, n, replication), reductions use compensated summation or sorting by
replication index, and outputs are written with full float precision -- so
rerunning a study reproduces its files byte for byte.
"""

import csv
import hashlib
import itertools
import json
import os
import platform

import numpy as np

from .curves import ConstantCurve, FourierCurve, SampledCurve, as_number, as_numbers
from .espec import replication_seed
from .estimator import (
    curve_inverse_l2_distance,
    default_eps,
    default_knots,
    fit_monotone_tvar,
    inverse_l2_distance,
)
from .likelihood import _contrasts
from .process import TvARModel, simulate_tvar_batch

__all__ = [
    "default_rate_model",
    "wavy_alpha_model",
    "study_knots",
    "rate_study",
    "log_log_slope",
    "likelihood_equivalence_decay",
    "default_equivalence_candidates",
    "write_rows_csv",
    "read_rows_csv",
    "write_metadata",
    "write_json",
]


def default_rate_model():
    """Order-1 model with constant coefficient 0.5 and a variance step 1 -> 2
    at u = 2/5.  The truth lies in the fitted class: constant coefficient,
    nondecreasing variance of bounded variation.

    The jump sits at 2/5 rather than 1/2 because 1/2 is degenerate for every
    sieve the rate study uses: an even knot count resolves the jump exactly
    (no approximation error, pure-noise decay at n^{-1/2}) while an odd count
    centers it in a cell (an approximation floor decaying only through the
    knot schedule).  At 2/5 no study sieve has a knot on the jump, so the fit
    carries both approximation and estimation error, the regime the sieve
    schedule is designed for, and the error decay shows the intended
    n^{-1/3}-ish exponent."""
    return TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 1.0, 2.0, 2.0, 2.0]))


def wavy_alpha_model():
    """Order-1 demo model with oscillating coefficient 0.5 cos(2 pi u) and
    unit variance; stable everywhere but outside the constant-coefficient
    fitted class."""
    return TvARModel(1, [FourierCurve(0.0, a=[0.5], b=[0.0])], ConstantCurve(1.0))


def study_knots(n):
    """Sieve size 2 ceil(n^{1/3} (log n)^{-2/3}), twice :func:`default_knots`,
    used by the rate study.

    Doubling the default schedule keeps the n^{1/3} (log n)^{-2/3} growth
    (6, 6, 6, 8, 8 over the default sizes) while giving every knot a chunk
    of at least ~40 residuals at the smallest n, so per-knot means are well
    resolved and the decay is driven by the schedule, not by tiny-chunk
    artifacts.
    """
    return 2 * default_knots(n)


def log_log_slope(ns, values):
    """Least-squares slope of log(values) against log(ns)."""
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    xs = xs - xs.mean()
    return float(np.dot(xs, ys) / np.dot(xs, xs))


def _median(values):
    """Median of a nonempty sequence of numbers, not nan: the middle value
    after sorting, or (a + b) / 2 of the two middle values, as a float.  It
    is bit-identical to ``np.median``'s but for the sign of a zero median
    when 0.0 and -0.0 tie in the middle.  The first ``np.median`` call
    imports numpy.ma, about 1.2 MB of RSS that no study needs."""
    v = np.sort(np.asarray(values, dtype=float))
    h = len(v) // 2
    return float(v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2)


def _rate_one(model, x, p, k_n, eps):
    fit = fit_monotone_tvar(x, p=p, k_n=k_n, eps=eps)
    fitted = TvARModel.from_coefficients(fit.alpha_hat, fit.sigma2_hat, validate=False)
    err_spec = inverse_l2_distance(fitted, model)
    err_var = curve_inverse_l2_distance(fit.sigma2_hat, model.sigma2)
    return {
        "err_spectrum": err_spec,
        "err_variance": err_var,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "alpha_stable": fit.alpha_stable,
        "knots_on_bounds": fit.knots_at_lower + fit.knots_at_upper,
    }


def rate_study(model=None, n_list=(256, 512, 1024, 2048, 4096), replications=50, seed=2026, p=1):
    """Monte Carlo decay of the fit errors over a grid of sample sizes.

    For each n, simulate all replications in one batch; for each
    replication, run the order-p monotone fit with the study's sieve
    schedule :func:`study_knots` and measure the inverse-spectrum L2 error
    of the full fitted spectrum and of the variance curve alone against
    model (:func:`default_rate_model` if None).
    Reports per-n medians and the log-log slopes across n.  Replication r
    shares its innovation stream across all n (common random numbers), which
    sharpens cross-n comparisons of the medians without changing any per-n
    distribution.  Each row also counts the variance knots that the fits
    left on the bounds [eps^2, 1/eps^2]: ``knots_on_bounds``, summed over
    the replications, and ``clipped_frac``, that sum over replications * k_n.

    Raises ValueError, before any simulation, unless n_list holds at least
    two strictly increasing integers >= 8, replications is an integer >= 2
    and seed and p are integers >= 0.

    Returns
    -------
    (rows, summary)
        rows: list of dict, one per n.  summary: dict with keys
        slope_spectrum, slope_variance, n_list and replications.
    """
    n_list = as_numbers(n_list, "n_list", int, 8)
    if len(n_list) < 2:
        raise ValueError("need at least two sizes")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("sizes must be strictly increasing")
    replications = as_number(replications, "replications", int, 2)
    seed = as_number(seed, "seed", int, 0)
    p = as_number(p, "p", int, 0)
    model = model if model is not None else default_rate_model()

    rows = []
    for n in n_list:
        k_n, eps = study_knots(n), default_eps(n)
        # common random numbers: replication r reuses one innovation stream
        # for every n, so cross-n median comparisons see the systematic trend
        # rather than independent per-n draws
        batch = simulate_tvar_batch(model, n, [replication_seed(seed, r) for r in range(replications)])
        results = [_rate_one(model, x, p, k_n, eps) for x in batch]
        on_bounds = sum(res["knots_on_bounds"] for res in results)
        rows.append(
            {
                "n": n,
                "k_n": k_n,
                "eps": eps,
                "median_err_spectrum": _median([res["err_spectrum"] for res in results]),
                "median_err_variance": _median([res["err_variance"] for res in results]),
                "median_iterations": _median([res["iterations"] for res in results]),
                "all_converged": bool(all(res["converged"] for res in results)),
                "all_alpha_stable": bool(all(res["alpha_stable"] for res in results)),
                "knots_on_bounds": on_bounds,
                "clipped_frac": on_bounds / (replications * k_n),
            }
        )

    summary = {
        "slope_spectrum": log_log_slope(n_list, [row["median_err_spectrum"] for row in rows]),
        "slope_variance": log_log_slope(n_list, [row["median_err_variance"] for row in rows]),
        "n_list": list(n_list),
        "replications": replications,
    }
    return rows, summary


def default_equivalence_candidates():
    """Stable constant-coefficient candidate models, including the default
    rate model's truth, for the likelihood-equivalence study."""
    return [
        TvARModel.from_coefficients([0.5], SampledCurve([1.0, 1.0, 2.0, 2.0, 2.0])),
        TvARModel.from_coefficients([0.3], 1.0),
        TvARModel.from_coefficients([0.7], SampledCurve([0.8, 1.2, 1.5, 2.5])),
        TvARModel.from_coefficients([-0.4], 1.6),
    ]


def likelihood_equivalence_decay(model=None, n_list=(256, 2048), replications=20, seed=7):
    """Gap between the conditional likelihood and the exact Whittle contrast.

    For each candidate of :func:`default_equivalence_candidates` evaluates
    the :func:`~locstat.likelihood.likelihood_gap` on simulated series and
    reports, per n, the median over replications of the worst candidate gap.
    Each candidate is scored once per batch of replications.  Replication r
    shares its innovation stream across all n (common random numbers), as in
    the rate study.

    Raises ValueError, before any simulation, unless n_list is a nonempty
    list of integers above the largest candidate order, replications is an
    integer >= 2 and seed is an integer >= 0.

    Returns
    -------
    list of dict with keys n, median_gap.
    """
    candidates = default_equivalence_candidates()
    n_list = as_numbers(n_list, "n_list", int, max(g.p for g in candidates) + 1)
    replications = as_number(replications, "replications", int, 2)
    seed = as_number(seed, "seed", int, 0)
    model = model or default_rate_model()
    rows = []
    for n in n_list:
        batch = simulate_tvar_batch(model, n, [replication_seed(seed, r) for r in range(replications)])
        gaps = np.max([_contrasts(batch, g)["gap"] for g in candidates], axis=0)
        rows.append({"n": n, "median_gap": _median(gaps)})
    return rows


def write_rows_csv(path, rows):
    """Write any iterable of dicts as CSV with full float precision, with
    the columns of the first dict."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ValueError("nothing to write")
    columns = list(first)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_format_cell(row.get(k)) for k in columns] for row in itertools.chain([first], rows))


def _format_cell(value):
    # np.float64 subclasses float, and under NumPy 2 its repr is "np.float64(...)"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def read_rows_csv(path):
    """Read a CSV written by write_rows_csv; numeric cells are parsed."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for k, v in row.items():
                try:
                    parsed[k] = int(v)
                except (TypeError, ValueError):
                    try:
                        parsed[k] = float(v)
                    except (TypeError, ValueError):
                        parsed[k] = v
            rows.append(parsed)
    return rows


def write_metadata(out_dir, command, config_text=None, seed=None, extra=None):
    """Write the metadata sidecar for a command's outputs.

    Records the command, a hash of the configuration it ran with, the seed,
    and library versions; no timestamps, so reruns produce identical files.
    """
    from . import __version__

    payload = {
        "command": command,
        "config_sha256": hashlib.sha256((config_text or "").encode()).hexdigest(),
        "seed": seed,
        "versions": {
            "locstat": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if extra:
        payload.update(extra)
    path = os.path.join(out_dir, "metadata.json")
    write_json(path, payload)
    return path


def write_json(path, payload):
    """Write payload as strict JSON, indented, keys sorted, newline-terminated.

    Raises ValueError, before the file is opened, on a NaN or infinite float,
    which JSON cannot hold.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
