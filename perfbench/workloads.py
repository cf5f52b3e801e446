"""Workload definitions: seeded inputs, the operations of one pass, and the
checks on their outputs.

A workload is a fixed sequence of operations.  Most are ``locstat`` CLI
commands, called in-process through ``locstat.cli.main(argv)``; the
divergence sandwiches are library calls because the CLI has no entry point
for them.  Every input comes from the workload seed: the same seed gives the
same configs, the same CLI ``--seed`` values and the same spectrum pairs.

Why these workloads:

- ``studies``: the paper's Monte Carlo studies in one pass.  The rate study
  evaluates the 2048 x 512 inverse-spectrum mesh twice per replication and
  the sandwiches a 512 x 1024 mesh per pair, so mesh evaluation
  (``process.spectral_density`` and the curve values) is the largest share;
  the CLT, equivalence and tail studies run many short replications, so the
  Python recursion in ``simulate_tvar`` and chi-square sampling come next.
  A lag-space core that removes the mesh, and batched replication, show
  here.
- ``series-analysis``: one long series through the user's pipeline, with
  nothing to batch, exact AR lag paths and CSV write-then-read; the dense
  pre-periodogram grid takes most of the time and sets peak memory.  A
  bounded-memory pre-periodogram shows here, and the two changes above do not.

All the studies share one workload so that each run can measure for the
better part of a minute within the benchmark's overall time limit: on a
shared host, speed drifts over tens of seconds, and shorter runs do not give
steady figures.
"""

import json
import math
import os

import numpy as np

WORKLOADS = ("studies", "series-analysis")

# Sizes of one pass.  Each pass takes a few seconds on a 2-core machine, so a
# run measures several passes and reports their median.
RATE_N_LIST = [256, 1024, 4096]
RATE_REPLICATIONS = 2
SANDWICH_PAIRS = 8
CLT_N = 512
CLT_REPLICATIONS = 400
EQUIVALENCE_N_LIST = [256, 2048]
EQUIVALENCE_REPLICATIONS = 10
TAIL_N = 1024
TAIL_REPLICATIONS = 10000
TAIL_ETAS = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
SERIES_N = 16384
GRID_SERIES_N = 4096
GRID_SIZES = [64, 128]
GRID_TIMES = 4
PROBE_TAIL = {"design": "linear", "n": 64, "replications": 1000}

# Objective-trace slack of the acceptance suite's descent check (criterion 8).
DESCENT_SLACK = 1e-8


class Op:
    """One operation of a pass: a CLI argv or a library call.

    ``out`` is the directory the operation writes (None for library calls),
    ``result`` holds a library call's return value after it ran.
    """

    def __init__(self, label, argv=None, call=None, out=None, command=None):
        self.label = label
        self.argv = argv
        self.call = call
        self.out = out
        self.command = command
        self.result = None


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cli_seed(rng):
    return str(int(rng.integers(0, 2**31 - 1)))


def _stable_pair_member(rng, order, check_stability):
    # as in acceptance criterion 10, coefficients in (-0.6, 0.6); the orders
    # are fixed so that the work of a pass does not depend on the seed
    while True:
        alpha = rng.uniform(-0.6, 0.6, order)
        if check_stability(alpha):
            break
    return {"alpha": [float(a) for a in alpha], "sigma2": float(rng.uniform(0.4, 2.5))}


def make_inputs(workload, seed, work):
    """Write the seeded configs of a workload under ``work``; return the
    values the operations need."""
    from locstat.process import check_stability

    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    os.makedirs(work, exist_ok=True)
    inputs = {}
    if workload == "studies":
        inputs["rate_seed"] = _cli_seed(rng)
        inputs["rate_config"] = _write_json(
            os.path.join(work, "rate.json"),
            {"n_list": RATE_N_LIST, "replications": RATE_REPLICATIONS},
        )
        pairs = [
            [_stable_pair_member(rng, 1 + i % 2, check_stability), _stable_pair_member(rng, 2 - i % 2, check_stability)]
            for i in range(SANDWICH_PAIRS)
        ]
        inputs["pairs"] = pairs
        _write_json(os.path.join(work, "pairs.json"), pairs)
        inputs["clt_seed"] = _cli_seed(rng)
        inputs["equivalence_seed"] = _cli_seed(rng)
        inputs["tail_seed"] = _cli_seed(rng)
        model = {
            "p": 1,
            "alpha": [{"type": "constant", "value": 0.5}],
            "sigma2": {"type": "sampled", "values": [1.0, 2.0]},
        }
        inputs["clt_config"] = _write_json(
            os.path.join(work, "clt.json"),
            {
                "model": model,
                "phi": {"type": "ar_inverse"},
                "n": CLT_N,
                "replications": CLT_REPLICATIONS,
                "centering": "analytic",
            },
        )
        inputs["equivalence_config"] = _write_json(
            os.path.join(work, "equivalence.json"),
            {"n_list": EQUIVALENCE_N_LIST, "replications": EQUIVALENCE_REPLICATIONS},
        )
        inputs["tail_config"] = _write_json(
            os.path.join(work, "tail.json"),
            {"design": "linear", "n": TAIL_N, "replications": TAIL_REPLICATIONS, "etas": TAIL_ETAS},
        )
    else:
        inputs["series_seed"] = _cli_seed(rng)
        inputs["grid_series_seed"] = _cli_seed(rng)
        times = np.sort(rng.choice(GRID_SERIES_N, size=GRID_TIMES, replace=False) + 1)
        inputs["times"] = [int(t) for t in times]
        inputs["fit_config"] = _write_json(os.path.join(work, "fit_config.json"), {"p": 1})
    return inputs


def _cli(label, command, out, *args):
    return Op(label, argv=[command, *args, "--threads", "1", "--out", out], out=out, command=command)


def _sandwich(pair):
    def call():
        from locstat.likelihood import SpectrumField, divergence_sandwich

        g, f = (SpectrumField.from_coefficients(m["alpha"], m["sigma2"]) for m in pair)
        return divergence_sandwich(g, f)

    return call


def make_ops(workload, inputs, out):
    """The operations of one pass, writing under ``out``."""
    d = lambda name: os.path.join(out, name)  # noqa: E731
    if workload == "studies":
        ops = [
            _cli("rate-study", "rate-study", d("rate"), "--config", inputs["rate_config"], "--seed", inputs["rate_seed"])
        ]
        ops += [Op(f"divergence_sandwich[{i}]", call=_sandwich(pair)) for i, pair in enumerate(inputs["pairs"])]
        return ops + [
            _cli("clt-study", "clt-study", d("clt"), "--config", inputs["clt_config"], "--seed", inputs["clt_seed"]),
            _cli(
                "equivalence",
                "equivalence",
                d("equivalence"),
                "--config",
                inputs["equivalence_config"],
                "--seed",
                inputs["equivalence_seed"],
            ),
            _cli("tail-study", "tail-study", d("tail"), "--config", inputs["tail_config"], "--seed", inputs["tail_seed"]),
        ]
    series = os.path.join(d("simulate"), "series.csv")
    grid_series = os.path.join(d("simulate-grid"), "series.csv")
    times = ",".join(str(t) for t in inputs["times"])
    ops = [
        _cli("simulate", "simulate", d("simulate"), "--n", str(SERIES_N), "--seed", inputs["series_seed"]),
        _cli("fit", "fit", d("fit"), "--series", series, "--config", inputs["fit_config"]),
        _cli(
            "likelihood-eval",
            "likelihood-eval",
            d("likelihood"),
            "--series",
            series,
            "--config",
            os.path.join(d("fit"), "fit.json"),
        ),
        _cli(
            "simulate-grid",
            "simulate",
            d("simulate-grid"),
            "--n",
            str(GRID_SERIES_N),
            "--seed",
            inputs["grid_series_seed"],
        ),
    ]
    for size in GRID_SIZES:
        ops.append(
            _cli(
                f"preperiodogram-{size}",
                "preperiodogram",
                d(f"preperiodogram-{size}"),
                "--series",
                grid_series,
                "--grid-size",
                str(size),
                "--times",
                times,
            )
        )
    return ops


def grid_rows_written(workload, inputs):
    """Pre-periodogram rows a pass writes (one per requested time and grid)."""
    if workload != "series-analysis":
        return 0
    return len(inputs["times"]) * len(GRID_SIZES)


# ----------------------------------------------------------------- outputs


def _cell(text):
    if text in ("True", "False"):
        return float(text == "True")
    try:
        return float(text)
    except ValueError:
        return None


def read_csv_columns(path):
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = {}
    for row in rows:
        for key, text in row.items():
            columns.setdefault(key, []).append(_cell(text))
    return columns


def _flatten(value, prefix, out):
    if isinstance(value, (int, float)):  # bool included, as 0.0 / 1.0
        out.setdefault(prefix, []).append(float(value))
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}", out)
    elif isinstance(value, list):
        for item in value:
            _flatten(item, prefix, out)


def collect_outputs(ops):
    """Numeric outputs of a pass: ``{op label: {quantity: [values]}}``.

    CSV files contribute one quantity per column, JSON files and library
    results one per numeric leaf; ``metadata.json`` is left out because it
    records paths and versions, not results.
    """
    outputs = {}
    for op in ops:
        quantities = {}
        if op.out is None:
            _flatten(op.result, "result", quantities)
        elif os.path.isdir(op.out):
            for name in sorted(os.listdir(op.out)):
                path = os.path.join(op.out, name)
                if name == "metadata.json":
                    continue
                if name.endswith(".csv"):
                    for column, values in read_csv_columns(path).items():
                        quantities[f"{name}:{column}"] = values
                elif name.endswith(".json"):
                    with open(path) as fh:
                        _flatten(json.load(fh), name, quantities)
        outputs[op.label] = quantities
    return outputs


# ----------------------------------------------------------------- checks


def _finite(values):
    return all(v is not None and math.isfinite(v) for v in values)


def _nonincreasing(values, slack=0.0):
    return all(b <= a + slack * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def check_invariants(workload, inputs, outputs):
    """Seed-free checks; returns ``[(op label, message)]`` for each miss."""
    misses = []

    def need(label, ok, message):
        if not ok:
            misses.append((label, message))

    if workload == "studies":
        rows = outputs["rate-study"]
        need("rate-study", rows.get("rate_rows.csv:n") == [float(n) for n in RATE_N_LIST], "rate rows do not cover n_list")
        need("rate-study", all(v == 1.0 for v in rows.get("rate_rows.csv:all_converged", [0.0])), "not all fits converged")
        need(
            "rate-study",
            all(v == 1.0 for v in rows.get("rate_rows.csv:all_alpha_stable", [0.0])),
            "not all fitted coefficients are stable",
        )
        for key in ("rate_rows.csv:median_err_spectrum", "rate_rows.csv:median_err_variance"):
            values = rows.get(key, [])
            need("rate-study", len(values) == len(RATE_N_LIST) and _finite(values) and min(values) > 0, f"bad {key}")
        for key in ("rate_summary.json.slope_spectrum", "rate_summary.json.slope_variance"):
            need("rate-study", _finite(rows.get(key, [None])), f"bad {key}")
        for i in range(len(inputs["pairs"])):
            label = f"divergence_sandwich[{i}]"
            lower, divergence, upper = (outputs[label].get(f"result.{k}", [None])[0] for k in ("lower", "divergence", "upper"))
            need(
                label,
                _finite([lower, divergence, upper]) and 0.0 <= lower <= divergence <= upper,
                "sandwich lower <= divergence <= upper fails",
            )
        clt = outputs["clt-study"]
        need("clt-study", clt.get("clt_summary.json.replications") == [float(CLT_REPLICATIONS)], "wrong replication count")
        need("clt-study", len(clt.get("clt_deviations.csv:deviation", [])) == CLT_REPLICATIONS, "wrong deviation count")
        need("clt-study", _finite(clt.get("clt_deviations.csv:deviation", [None])), "non-finite deviations")
        for key in ("empirical_variance", "limit_variance", "ratio"):
            values = clt.get(f"clt_summary.json.{key}", [None])
            need("clt-study", _finite(values) and values[0] > 0, f"bad {key}")
        eq = outputs["equivalence"]
        need("equivalence", eq.get("equivalence_rows.csv:n") == [float(n) for n in EQUIVALENCE_N_LIST], "wrong sizes")
        gaps = eq.get("equivalence_rows.csv:median_gap", [None])
        need("equivalence", _finite(gaps) and min(gaps) >= 0, "bad median gaps")
        tail = outputs["tail-study"]
        need("tail-study", tail.get("tail_rows.csv:eta") == TAIL_ETAS, "wrong thresholds")
        exceed = tail.get("tail_rows.csv:exceedances", [])
        need("tail-study", len(exceed) == len(TAIL_ETAS) and _nonincreasing(exceed), "exceedances increase with eta")
        emp = tail.get("tail_rows.csv:empirical", [])
        upper = tail.get("tail_rows.csv:upper99", [])
        need(
            "tail-study",
            _finite(emp + upper) and all(0.0 <= e <= u <= 1.0 for e, u in zip(emp, upper)),
            "empirical frequency above its upper limit",
        )
    else:
        for label, n in (("simulate", SERIES_N), ("simulate-grid", GRID_SERIES_N)):
            x = outputs[label].get("series.csv:x", [])
            need(label, len(x) == n and _finite(x), "series has wrong length or non-finite values")
        fit = outputs["fit"]
        trace = fit.get("fit.json.objective_trace", [])
        need("fit", len(trace) >= 2 and _finite(trace), "objective trace missing")
        need("fit", _nonincreasing(trace, DESCENT_SLACK), "objective trace increases")
        need("fit", fit.get("fit.json.converged") == [1.0], "fit did not converge")
        need("fit", fit.get("fit.json.alpha_stable") == [1.0], "fitted coefficients unstable")
        lik = outputs["likelihood-eval"]
        values = [lik.get(f"likelihood.json.{k}", [None])[0] for k in ("whittle", "conditional", "gap")]
        need("likelihood-eval", _finite(values) and values[2] >= 0, "bad likelihood values")
        for size in GRID_SIZES:
            label = f"preperiodogram-{size}"
            pre = outputs[label]
            expected_t = [float(t) for t in inputs["times"] for _ in range(size)]
            need(label, pre.get("preperiodogram.csv:t") == expected_t, "wrong rows")
            need(label, _finite(pre.get("preperiodogram.csv:value", [None])), "non-finite values")
    return misses


# --------------------------------------------------------------- reference

# One relative tolerance for every reference comparison: a quantity matches
# when max |new - ref| <= REFERENCE_RTOL * max |ref| over its values.  It
# accepts exact rewrites that agree to 1e-12 relative and rejects a changed
# random stream, which moves every quantity at the percent level.
REFERENCE_RTOL = 1e-9
REFERENCE_SEED = 0
REFERENCE_SAMPLES = 64


def digest(outputs):
    """Reference form of a pass's outputs: each quantity's length and up to
    REFERENCE_SAMPLES evenly spaced values."""
    out = {}
    for label, quantities in outputs.items():
        for key, values in quantities.items():
            if not values or any(v is None for v in values):
                continue
            idx = np.unique(np.linspace(0, len(values) - 1, min(len(values), REFERENCE_SAMPLES)).round().astype(int))
            out[f"{label}/{key}"] = {"n": len(values), "v": [values[i] for i in idx]}
    return out


def compare_reference(reference, outputs):
    """Misses against the recorded reference, as ``[(op label, message)]``.

    Quantities that the reference does not know (outputs added later) are
    not compared."""
    current = digest(outputs)
    misses = []
    for key, ref in reference.items():
        label = key.split("/", 1)[0]
        got = current.get(key)
        if got is None or got["n"] != ref["n"]:
            misses.append((label, f"{key}: missing or wrong length"))
            continue
        a, b = np.array(got["v"]), np.array(ref["v"])
        if np.max(np.abs(a - b)) > REFERENCE_RTOL * np.max(np.abs(b)):
            misses.append((label, f"{key}: differs from reference beyond rtol {REFERENCE_RTOL:g}"))
    return misses
