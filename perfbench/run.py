"""End-to-end benchmark of locstat.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for what each runs and why): studies,
series-analysis.

A run starts one fresh, single-threaded worker process (worker.py) that sets
up, runs the workload's pass repeatedly for --seconds, checks every output
and reports.  Before and after it, SETUP_PROBES fresh interpreters each only
set up, so set-up is sampled at both ends of the run.  Processes run one at
a time, with one BLAS thread and ``--threads 1``.

End-to-end metrics (--trace 0):

- setup_s: interpreter start to the first timed command (import locstat and
  write the seeded inputs); median over the set-up probes and the worker.
- wall_s: median wall time of one pass, over the passes after the first
  (the first warms caches); the pass count is printed.  The host's speed
  drifts over tens of seconds, so a run should measure close to a minute.
- peak_rss_mb: ru_maxrss of the worker process.
- ok_frac: operations that succeeded and passed their checks, over those
  attempted; 1 - fail_frac.

Per-layer metrics (--trace 1): the worker runs untraced passes for half the
time, then wraps the library's public functions (tracer.py), runs one pass
with tracemalloc on inside spectral-layer calls for spectral.peak_alloc_mb,
and runs traced passes without it for the rest of the time.  Every other
per-layer value is per traced pass, except the cli.<subcommand>.wall_s
times, which come from the untraced passes.  Spans go to .perfbench_out/.

Checks: seed-free invariants on every run, byte-identical outputs on every
pass, and, for the reference seed 0, agreement with reference.json to one
relative tolerance (workloads.REFERENCE_RTOL).  A failed operation is an
exception or an output that misses a check.

Known-defect probes (run once per run, untimed, not counted as operations):
tail-study without "etas", an unknown config key and --threads 0.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2  # before the worker, and again after it
SETUP_TIMEOUT_S = 15
# beyond --seconds; with the set-up timeouts a run ends within 180 s at --seconds 50
WORKER_EXTRA_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="locstat end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def start_worker(args, work, *extra, timeout):
    """Run worker.py to completion and return its last stdout line as JSON."""
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        WORKER,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--work",
        work,
        "--t0",
        repr(t0),
        *extra,
    ]
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "locstat", "__init__.py")):
        print(f"no locstat sources under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    def setup_probes(tag):
        return [
            start_worker(args, os.path.join(work, f"setup-{tag}{i}"), "--setup-only", timeout=SETUP_TIMEOUT_S)["setup"]
            for i in range(SETUP_PROBES)
        ]

    try:
        setups = setup_probes("before")
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
        result = start_worker(args, os.path.join(work, "run"), *extra, timeout=args.seconds + WORKER_EXTRA_S)
        setups += setup_probes("after")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup"])

    attempted, failed = result["attempted"], result["failed"]
    walls = result["pass_walls"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(result["env"], sort_keys=True))
    print(f"wall_s: median of {len(walls)} passes after one warm-up pass: " + ", ".join(f"{w:.4f}" for w in walls))
    print(f"setup_s: median of {len(setups)} set-ups: " + ", ".join(f"{s['setup_s']:.4f}" for s in setups))
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    for failure in result["failures"]:
        print(f"failed: pass {failure['pass']} {failure['op']}: {failure['reason']}")
    for name, probe in result["probes"].items():
        print(f"{name} = {probe['value']} ({probe['detail']})")

    if args.trace:
        values = dict(result["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        values.update((name, probe["value"]) for name, probe in result["probes"].items())
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(values):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def declared_units(kind):
    """Units of the metrics BENCHMARK.json declares, by metric name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
