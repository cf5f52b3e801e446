"""Command-line interface.

Every subcommand writes its outputs into --out (created if missing) together
with a metadata.json sidecar recording the command, a hash of the config it
ran with, the seed, and library versions, all through :func:`_write_outputs`.
Outputs are deterministic in (config, seed): reruns reproduce files byte for
byte.  JSON outputs are strict: an undefined value is null, never NaN.

Subcommands
-----------
simulate        draw a time-varying AR path and write it as CSV
preperiodogram  tabulate the pre-periodogram of a series on a frequency grid
likelihood-eval evaluate Whittle and conditional likelihoods of a candidate
fit             run the monotone-variance fit on a series
rate-study      error decay of the fit across sample sizes
tail-study      exceedance frequencies of quadratic forms vs. tail bounds
clt-study       scaled fluctuations of a spectral mean vs. the limit variance
prop33          sqrt(n)-scaled bias of a spectral mean across sample sizes
"""

import argparse
import functools
import inspect
import json
import os
import sys

import numpy as np

from .curves import ConstantCurve, as_number, check_spec_keys, curve_from_spec, curve_to_spec
from .espec import TailStudySpec, bias_scaling_study, chi2_tail_study, limit_covariance, spectral_process_sample
from .estimator import fit_monotone_tvar
from .harness import (
    default_rate_model,
    likelihood_equivalence_decay,
    rate_study,
    write_json,
    write_metadata,
    write_rows_csv,
)
from .likelihood import likelihood_gap
from .process import (
    TimeSeries,
    TvARModel,
    model_from_json,
    simulate_tvar,
    white_noise_model,
)
from .spectral import FrequencyGrid, PrePeriodogram, ar_inverse_weight, constant_weight, lag_curve_weight

__all__ = ["main", "build_parser"]


def _read_config(args):
    """The --config JSON object ({} without --config) and its text."""
    if args.config is None:
        return {}, ""
    with open(args.config) as fh:
        text = fh.read()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError("--config must hold a JSON object")
    return config, text


def _config_model(config, default=None):
    """The model built from the config's model object; default without one."""
    return model_from_json(config["model"]) if "model" in config else default


def _study_kwargs(args, config, call, model=None):
    """The keyword arguments of a study's library call: call's signature
    defaults, with the config laid over them and --seed, when given, over
    the config's seed; a config key that names no parameter of call is
    refused, the seed is checked and the model is built (model standing in
    for an absent one unless None)."""
    params = inspect.signature(call).parameters
    check_spec_keys(config, params, "config")
    kwargs = {name: param.default for name, param in params.items() if param.default is not param.empty}
    kwargs.update(config)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    kwargs["seed"] = as_number(kwargs["seed"], "seed", int, 0)
    model = _config_model(config, model)
    if model is not None:
        kwargs["model"] = model
    return kwargs


def _parse_times(text):
    """Sorted distinct 1-based times of a --times value; None for "all".

    Raises ValueError naming the first entry that is not an integer; the
    range 1..n is checked by :meth:`PrePeriodogram.evaluate_grid`.
    """
    if text == "all":
        return None
    times = set()
    for token in text.split(","):
        try:
            times.add(int(token))
        except ValueError:
            raise ValueError(f'--times entry {token!r} is not an integer; give 1-based times or "all"') from None
    return sorted(times)


def _write_outputs(args, files, config_text, seed, extra=None):
    """Write a command's result files into --out, then its metadata.json, and
    print one "wrote <path>" line per result file.

    files maps each file name, in the order to write, to its contents: a
    dict is written as JSON, a TimeSeries as its CSV and anything else as
    rows of dicts.  --out is created here, once the command has computed
    everything.  The metadata names args.command and, for a command that
    reads --series, the series' basename, so it does not depend on where the
    series lies.
    """
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name) for name in files]
    for path, contents in zip(paths, files.values()):
        if isinstance(contents, dict):
            write_json(path, contents)
        elif isinstance(contents, TimeSeries):
            contents.to_csv(path)
        else:
            write_rows_csv(path, contents)
    if "series" in args:
        extra = {**(extra or {}), "series": os.path.basename(args.series)}
    write_metadata(args.out, args.command, config_text, seed, extra=extra)
    for path in paths:
        print(f"wrote {path}")


WEIGHT_KEYS = {"constant": ("type", "value"), "ar_inverse": ("type", "scale"), "lag_curves": ("type", "curves")}


def _weight_from_spec(spec, model):
    """Build a spectral weight function from its JSON description.

    {"type": "constant", "value": v}
    {"type": "ar_inverse", "scale": s}        -- the weight of model
    {"type": "lag_curves", "curves": {"0": <curve spec or number>, ...}}

    Raises ValueError on an unknown type or key and on missing curves.
    """
    if not isinstance(spec, dict):
        raise ValueError("weight spec must be a JSON object")
    params = dict(spec)
    kind = params.pop("type", "constant")
    if not isinstance(kind, str) or kind not in WEIGHT_KEYS:
        raise ValueError(f"unknown weight type {kind!r}")
    check_spec_keys(spec, WEIGHT_KEYS[kind], f"{kind} weight", ("curves",) if kind == "lag_curves" else ())
    if kind == "constant":
        return constant_weight(**params)
    if kind == "ar_inverse":
        return ar_inverse_weight(model, **params)
    curves = params["curves"]
    if not isinstance(curves, dict):
        raise ValueError("lag_curves weight curves must be a JSON object")
    return lag_curve_weight(
        {key: val if isinstance(val, (int, float)) else curve_from_spec(val) for key, val in curves.items()}
    )


def _cmd_simulate(args):
    config, text = _read_config(args)  # the config is the model
    model = model_from_json(config, "config") if config else default_rate_model()
    seed = args.seed if args.seed is not None else 0
    x = simulate_tvar(model, args.n, seed)
    mean, var = float(np.mean(x.values)), float(np.var(x.values))  # an overflow here leaves no --out
    _write_outputs(args, {"series.csv": x}, text, seed, extra={"n": args.n, "model": model.describe()})
    print(f"n={args.n} seed={seed} mean={mean:.6g} var={var:.6g}")
    return 0


def _cmd_preperiodogram(args):
    grid = FrequencyGrid(args.grid_size)
    times = _parse_times(args.times)
    x = TimeSeries.from_csv(args.series)
    values = PrePeriodogram(x).evaluate_grid(grid, times)
    if times is None:
        times = range(1, x.n + 1)
    rows = (
        {"t": t, "lambda": float(lam), "value": float(value)}
        for t, row in zip(times, values)
        for lam, value in zip(grid.nodes, row)
    )
    config_text = f"series={os.path.basename(args.series)} grid_size={args.grid_size} times={args.times}"
    extra = {"n": x.n, "grid_size": args.grid_size}
    _write_outputs(args, {"preperiodogram.csv": rows}, config_text, None, extra=extra)
    print(f"n={x.n} times={len(times)} grid_size={args.grid_size}")
    return 0


def _cmd_likelihood_eval(args):
    if args.config is None:
        raise ValueError("needs --config with a candidate model")
    config, text = _read_config(args)
    if "sigma2" not in config and "model" in config:
        model = _config_model(config)  # accept fit.json output directly
    else:
        model = model_from_json(config, "config")
    x = TimeSeries.from_csv(args.series)  # read once the config is checked
    constant_alpha = all(isinstance(c, ConstantCurve) for c in model.alpha)
    result = {"n": x.n, **likelihood_gap(x, model), "constant_alpha": constant_alpha}
    _write_outputs(args, {"likelihood.json": result}, text, None)
    print(f"whittle={result['whittle']!r} conditional={result['conditional']!r}")
    return 0


def _cmd_fit(args):
    config, text = _read_config(args)
    allowed = [name for name in inspect.signature(fit_monotone_tvar).parameters if name != "series"]
    check_spec_keys(config, allowed, "config")
    x = TimeSeries.from_csv(args.series)  # read once the config keys are checked
    fit = fit_monotone_tvar(x, **config)
    fitted_model = TvARModel.from_coefficients(fit.alpha_hat, fit.sigma2_hat, validate=False)
    result = {
        "n": x.n,
        "alpha_hat": [float(a) for a in fit.alpha_hat],
        "sigma2_hat": curve_to_spec(fit.sigma2_hat),
        "k_n": fit.k_n,
        "eps": fit.eps,
        "objective": fit.objective,
        "objective_trace": fit.objective_trace,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "alpha_stable": fit.alpha_stable,
        "model": fitted_model.describe(),
        "sigma2_lower": fit.sigma2_hat.lower,
        "sigma2_upper": fit.sigma2_hat.upper,
        "knots_at_lower": fit.knots_at_lower,
        "knots_at_upper": fit.knots_at_upper,
    }
    _write_outputs(args, {"fit.json": result}, text, None)
    print(
        f"alpha_hat={[round(a, 6) for a in result['alpha_hat']]} "
        f"k_n={fit.k_n} iterations={fit.iterations} converged={fit.converged}"
    )
    if fit.knots_at_lower or fit.knots_at_upper:
        print(
            f"fit: warning: sigma2_hat knots on the bounds [eps^2, 1/eps^2] = "
            f"[{fit.sigma2_hat.lower:.6g}, {fit.sigma2_hat.upper:.6g}]: {fit.knots_at_lower} at the lower, "
            f"{fit.knots_at_upper} at the upper, of {fit.sigma2_hat.knots}",
            file=sys.stderr,
        )
    return 0


def _cmd_rate_study(args):
    config, text = _read_config(args)
    kwargs = _study_kwargs(args, config, rate_study)
    rows, summary = rate_study(**kwargs)
    _write_outputs(args, {"rate_rows.csv": rows, "rate_summary.json": summary}, text, kwargs["seed"])
    print(f"slope_spectrum={summary['slope_spectrum']:.4f} slope_variance={summary['slope_variance']:.4f}")
    return 0


def _cmd_tail_study(args):
    config, text = _read_config(args)
    kwargs = _study_kwargs(args, config, TailStudySpec.from_design)
    spec = TailStudySpec.from_design(**kwargs)
    rows = chi2_tail_study(spec)
    _write_outputs(args, {"tail_rows.csv": rows}, text, kwargs["seed"], extra={"design": kwargs["design"], "n": spec.n})
    for row in rows:
        print(
            f"eta={row['eta']:g} empirical={row['empirical']:.3e} "
            f"upper99={row['upper99']:.3e} bound_quadratic={row['bound_quadratic']:.3e}"
        )
    return 0


def _cmd_clt_study(args):
    config, text = _read_config(args)
    kwargs = _study_kwargs(args, config, spectral_process_sample, white_noise_model())
    phi = kwargs["phi"] = _weight_from_spec(config.get("phi", {}), kwargs["model"])
    sample = spectral_process_sample(**kwargs)
    n = sample.n
    limit = limit_covariance(phi, phi, kwargs["model"])
    emp = sample.variance()
    result = {
        "n": n,
        "replications": sample.replications,
        "center": sample.center,
        "empirical_variance": emp,
        "limit_variance": limit,
        "ratio": emp / limit if limit > 0 else None,  # null: a zero weight has no limit to compare with
    }
    files = {"clt_summary.json": result, "clt_deviations.csv": ({"deviation": float(d)} for d in sample.deviations)}
    _write_outputs(args, files, text, kwargs["seed"], extra={"n": n})
    ratio = "None" if result["ratio"] is None else f"{result['ratio']:.4f}"
    print(f"empirical_variance={emp:.6g} limit_variance={limit:.6g} ratio={ratio}")
    return 0


def _cmd_prop33(args):
    config, text = _read_config(args)
    kwargs = _study_kwargs(args, config, bias_scaling_study, white_noise_model())
    kwargs["phi"] = _weight_from_spec(config.get("phi", {}), kwargs["model"])
    rows = bias_scaling_study(**kwargs)
    _write_outputs(args, {"bias_rows.csv": rows}, text, kwargs["seed"], extra={"n_list": [row["n"] for row in rows]})
    for row in rows:
        print(
            f"n={row['n']} sqrt_n_bias={row['sqrt_n_bias']:.4e} "
            f"n_bias={row['n_bias']:.4e} stderr={row['stderr']:.3e}"
        )
    return 0


def _cmd_equivalence(args):
    config, text = _read_config(args)
    kwargs = _study_kwargs(args, config, likelihood_equivalence_decay)
    rows = likelihood_equivalence_decay(**kwargs)
    _write_outputs(args, {"equivalence_rows.csv": rows}, text, kwargs["seed"])
    for row in rows:
        print(f"n={row['n']} median_gap={row['median_gap']:.6e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locstat",
        description="Spectral estimation for locally stationary time series.",
    )
    # every subcommand takes --threads and --out; main() refuses --threads
    # other than 1
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1, help="must be 1: locstat runs on one thread")
    common.add_argument("--out", default=".", help="output directory (created if missing)")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", default=None, help="path to a JSON config file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[configured])
    seeded.add_argument("--seed", type=int, default=None, help="master seed (default per subcommand)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[seeded], help="simulate a time-varying AR path")
    p_sim.add_argument("--n", type=int, required=True, help="series length (>= 1)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pre = sub.add_parser("preperiodogram", parents=[common], help="tabulate the pre-periodogram")
    p_pre.add_argument("--series", required=True, help="input series CSV")
    p_pre.add_argument("--grid-size", type=int, default=64, help="frequency grid size (even, >= 2)")
    p_pre.add_argument(
        "--times", default="all", help='comma-separated 1-based times, or "all"; only these rows are computed'
    )
    p_pre.set_defaults(func=_cmd_preperiodogram)

    p_lik = sub.add_parser(
        "likelihood-eval", parents=[configured], help="evaluate likelihoods of a candidate model"
    )
    p_lik.add_argument("--series", required=True, help="input series CSV")
    p_lik.set_defaults(func=_cmd_likelihood_eval)

    p_fit = sub.add_parser("fit", parents=[configured], help="monotone-variance fit")
    p_fit.add_argument("--series", required=True, help="input series CSV")
    p_fit.set_defaults(func=_cmd_fit)

    p_rate = sub.add_parser("rate-study", parents=[seeded], help="fit error decay across sample sizes")
    p_rate.set_defaults(func=_cmd_rate_study)

    p_tail = sub.add_parser("tail-study", parents=[seeded], help="quadratic-form tail frequencies vs. bounds")
    p_tail.set_defaults(func=_cmd_tail_study)

    p_clt = sub.add_parser("clt-study", parents=[seeded], help="scaled fluctuations vs. limit variance")
    p_clt.set_defaults(func=_cmd_clt_study)

    p_prop = sub.add_parser(
        "prop33", parents=[seeded], help="sqrt(n)-scaled bias of a spectral mean across sample sizes"
    )
    p_prop.set_defaults(func=_cmd_prop33)

    p_eq = sub.add_parser(
        "equivalence", parents=[seeded], help="candidate likelihood gap decay across sample sizes"
    )
    p_eq.set_defaults(func=_cmd_equivalence)

    return parser


@functools.cache
def _parser():
    # parse_args leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv=None):
    """Run one subcommand.  Bad input, whether a flag value, a config, a
    series, an --out that cannot be written, data the fit cannot identify,
    data whose arithmetic overflows (NumPy's overflow and invalid operations
    raise here) or a size beyond memory, raises ValueError, OSError,
    FloatingPointError or MemoryError below; it exits here with "<command>:
    <message>".  Any other exception is a bug and keeps its traceback."""
    args = _parser().parse_args(argv)
    try:
        if args.threads != 1:
            raise ValueError(f"--threads must be 1, got {args.threads}: locstat runs on one thread")
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
