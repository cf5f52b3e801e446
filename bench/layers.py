"""Per-layer timings of locstat: best and median of k seconds, and tracemalloc peak.

Times ten layers at each n: on a series of the default rate model,
simulation, the pre-periodogram grid, the lag-path spectral functional, the
Whittle contrast alone and with the conditional contrast (likelihood_gap,
which scores both), the sieve PAVA step on the lag-1 squares,
and the monotone and Fourier fits; the tail-study sampler on a linear design
of n weights; and the divergence sandwich of a pair with step coefficient
curves, which does not depend on n.  Each layer gets its best and its
median time over --repeats calls (the median is the steadier of the two when
the host is noisy), then its tracemalloc peak on one more call (tracing slows
the call, so it is not timed).  The layers run at 1 and
at 2 BLAS threads, each thread count in a fresh interpreter whose thread
variables are set before NumPy loads.  Run from a checkout:

    python bench/layers.py --out BENCH.json [--n 1024 4096 16384] [--repeats 50]

The JSON holds the Python and NumPy versions, the line count of
src/locstat, and one row per layer, n and thread count with best_s,
median_s and peak_mib.  No timing is checked; the file is a trajectory
across changes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
THREADS = (1, 2)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GRID_SIZE = 64  # frequency nodes of the pre-periodogram grid layer
TAIL_REPLICATIONS = 1000  # the fewest a TailStudySpec takes: one sampler chunk up to n = 131
TAIL_ETAS = (1.0, 2.0, 4.0)


def layers(n):
    """(name, call) for each layer at length n."""
    # imported here, so that NumPy loads only in the child interpreters
    from locstat import (
        ConstantCurve,
        FrequencyGrid,
        PrePeriodogram,
        SampledCurve,
        TailStudySpec,
        TvARModel,
        ar_inverse_weight,
        chi2_tail_study,
        default_eps,
        default_knots,
        default_rate_model,
        divergence_sandwich,
        fit_fourier_tvar,
        fit_monotone_tvar,
        likelihood_gap,
        sieve_pava,
        simulate_tvar,
        spectral_functional,
        whittle_contrast,
    )

    model = default_rate_model()
    x = simulate_tvar(model, n, 0)
    pre, grid, weight = PrePeriodogram(x), FrequencyGrid(GRID_SIZE), ar_inverse_weight(model)
    squares, k_n, eps = x.values[1:] ** 2, default_knots(n), default_eps(n)
    tail = TailStudySpec.from_design("linear", n, TAIL_REPLICATIONS, TAIL_ETAS)
    g = TvARModel(1, [SampledCurve([0.5, -0.3])], model.sigma2)
    f = TvARModel(1, [SampledCurve([0.2, 0.4, -0.1])], ConstantCurve(1.0))
    return [
        ("simulate_tvar", lambda: simulate_tvar(model, n, 0)),
        ("evaluate_grid", lambda: pre.evaluate_grid(grid)),
        ("spectral_functional", lambda: spectral_functional(x, weight)),
        ("whittle_contrast", lambda: whittle_contrast(x, model)),
        ("likelihood_gap", lambda: likelihood_gap(x, model)),
        ("sieve_pava", lambda: sieve_pava(squares, n, 1, k_n, eps)),
        ("fit_monotone_tvar", lambda: fit_monotone_tvar(x, p=1)),
        ("fit_fourier_tvar", lambda: fit_fourier_tvar(x, 1)),
        ("chi2_tail_study", lambda: chi2_tail_study(tail)),
        ("divergence_sandwich", lambda: divergence_sandwich(g, f)),
    ]


def measure(call, repeats):
    """Best and median seconds of call over repeats calls, and the MiB peak of one traced call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return min(times), statistics.median(times), peak / 2**20


def run_layers(sizes, repeats, threads):
    """The rows of this interpreter, whose environment set the thread count."""
    import numpy

    rows = []
    for n in sizes:
        for name, call in layers(n):
            best, median, peak = measure(call, repeats)
            rows.append({"layer": name, "n": n, "threads": threads, "best_s": best, "median_s": median, "peak_mib": peak})
    return {"numpy": numpy.__version__, "rows": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Per-layer timings of locstat.")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--n", type=int, nargs="+", default=[1024, 4096, 16384], help="series lengths")
    parser.add_argument("--repeats", type=int, default=50, help="timed calls per layer and n; the best and the median count")
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)  # set by the parent run
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.threads is not None:
        json.dump(run_layers(args.n, args.repeats, args.threads), sys.stdout)
        return
    runs = []
    for threads in THREADS:
        env = {**os.environ, **{name: str(threads) for name in THREAD_VARIABLES}}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        command = [sys.executable, __file__, "--out", args.out, "--threads", str(threads), "--repeats", str(args.repeats)]
        child = subprocess.run(command + ["--n", *map(str, args.n)], env=env, stdout=subprocess.PIPE, text=True, check=True)
        runs.append(json.loads(child.stdout))
    result = {
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "src_lines": sum(len(path.read_text().splitlines()) for path in (SRC / "locstat").glob("*.py")),
        "repeats": args.repeats,
        "rows": [row for run in runs for row in run["rows"]],
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
