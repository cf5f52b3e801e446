"""The measured process of one benchmark run (started by run.py).

It sets up (imports locstat, writes the seeded inputs), runs the workload's
pass repeatedly for the given number of seconds, checks the outputs, and
prints one JSON object as its last line.  With ``--setup-only`` it stops
after set-up and reports only the set-up times, so run.py can sample set-up
in several fresh interpreters.

``--t0`` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so set-up times include interpreter start.

To record the reference outputs for the reference seed (after a deliberate
change of the outputs), from the root of the repository:

    PYTHONPATH=src python3 perfbench/worker.py --workload <name> --seed 0 \
        --seconds 1 --work .perfbench_work/record --record
"""

import argparse
import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
LAYERS = ("cli", "harness", "espec", "estimator", "isotonic", "likelihood", "spectral", "process", "curves")
SUBCOMMANDS = (
    "simulate",
    "fit",
    "likelihood-eval",
    "preperiodogram",
    "rate-study",
    "clt-study",
    "equivalence",
    "tail-study",
)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--t0", type=float, default=None, help="monotonic time the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="file for the spans of a traced run")
    parser.add_argument("--record", action="store_true", help="record the reference outputs of this workload")
    return parser.parse_args(argv)


def run_op(op):
    """Run one operation; return None on success or a one-line error."""
    from locstat import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if op.call is not None:
                op.result = op.call()
                return None
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed operation is counted, not fatal
        return f"{type(exc).__name__}: {exc}"
    return None if code in (0, None) else f"exit code {code}"


def run_pass(ops):
    """Run every operation once; return the pass wall time, per-op seconds
    and per-op errors."""
    op_seconds = {}
    errors = {}
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        error = run_op(op)
        op_seconds[op.label] = time.perf_counter() - t
        if error is not None:
            errors[op.label] = error
    return time.perf_counter() - start, op_seconds, errors


def fingerprint(ops):
    """Hash of each operation's outputs: its files, or its library result."""
    prints = {}
    for op in ops:
        h = hashlib.sha256()
        if op.out is None:
            h.update(json.dumps(op.result, sort_keys=True, default=repr).encode())
        elif os.path.isdir(op.out):
            for name in sorted(os.listdir(op.out)):
                h.update(name.encode())
                with open(os.path.join(op.out, name), "rb") as fh:
                    h.update(fh.read())
        prints[op.label] = h.hexdigest()
    return prints


def tree_bytes(root):
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_probes(work):
    """Known-defect probes, run once outside the timed passes and not counted
    as operations: 1 means the defect still shows."""
    from locstat import cli

    os.makedirs(work, exist_ok=True)

    def attempt(name, config, *extra):
        path = os.path.join(work, f"probe-{name}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = ["tail-study", "--config", path, "--seed", "0", "--out", os.path.join(work, f"probe-{name}"), *extra]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        except (Exception, SystemExit) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    from workloads import PROBE_TAIL

    no_etas = attempt("no-etas", PROBE_TAIL)
    unknown_key = attempt("unknown-key", {**PROBE_TAIL, "etas": [1.0, 2.0], "kn": 3})
    threads0 = attempt("threads0", {**PROBE_TAIL, "etas": [1.0, 2.0]}, "--threads", "0")
    return {
        "probe.tail_no_etas_fails": {"value": int(no_etas is not None), "detail": no_etas},
        "probe.unknown_key_accepted": {"value": int(unknown_key is None), "detail": unknown_key},
        "probe.threads0_accepted": {"value": int(threads0 is None), "detail": threads0},
    }


def environment(seed):
    import numpy
    import scipy

    src = os.path.join(os.path.dirname(HERE), "src", "locstat")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "src_locstat_lines": lines,
        "cli_threads": 1,
        "python_threads": threading.active_count(),
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def load_reference(workload):
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload)


def record_reference(workload, outputs):
    from workloads import digest

    data = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            data = json.load(fh)
    data[workload] = digest(outputs)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    t0 = T_START if args.t0 is None else args.t0

    import locstat  # noqa: F401
    import locstat.cli  # noqa: F401

    t_imported = time.monotonic()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    inputs = workloads.make_inputs(args.workload, args.seed, os.path.join(args.work, "inputs"))
    ops = workloads.make_ops(args.workload, inputs, os.path.join(args.work, "pass"))
    t_setup = time.monotonic()
    setup = {"setup_s": t_setup - t0, "import_s": t_imported - t0, "inputs_s": t_setup - t_imported}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    result = {"setup": setup, "env": environment(args.seed)}
    failed_ops = []  # (pass index, op label, reason)
    first_prints = None
    pass_walls = []
    op_walls = []

    def one_pass(index, tracer=None):
        nonlocal first_prints
        if tracer is not None:
            tracer.active = True
        wall, op_seconds, errors = run_pass(ops)
        if tracer is not None:
            tracer.active = False
        pass_walls.append(wall)
        op_walls.append(op_seconds)
        misses = list(errors.items())
        if index == 0:
            outputs = workloads.collect_outputs(ops)
            try:
                misses += workloads.check_invariants(args.workload, inputs, outputs)
            except Exception:  # a check that cannot read an output is a miss
                misses.append(("checks", traceback.format_exc(limit=1).strip().splitlines()[-1]))
            reference = load_reference(args.workload)
            if args.record:
                record_reference(args.workload, outputs)
            elif args.seed == workloads.REFERENCE_SEED and reference is not None:
                misses += workloads.compare_reference(reference, outputs)
            elif args.seed == workloads.REFERENCE_SEED:
                misses.append(("reference", f"no reference recorded in {REFERENCE_PATH}"))
            first_prints = fingerprint(ops)
        else:
            prints = fingerprint(ops)
            misses += [(label, "output differs from the first pass") for label in prints if prints[label] != first_prints[label]]
        for label in dict.fromkeys(label for label, _ in misses):
            failed_ops.append((index, label, "; ".join(m for l, m in misses if l == label)))

    budget_end = time.perf_counter() + args.seconds
    untraced_end = budget_end - args.seconds / 2 if args.trace else budget_end
    index = 0
    # pass 0 warms caches and lazy set-up; it is checked but not in the median
    while index < 2 or time.perf_counter() < untraced_end:
        one_pass(index)
        index += 1
    untraced = pass_walls[1:]

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # one pass for spectral.peak_alloc_mb, then passes timed without tracemalloc
        tracer.measure_memory = True
        one_pass(index, tracer)
        index += 1
        tracer.measure_memory = False
        tracer.clear()
        traced_first = index
        while index == traced_first or time.perf_counter() < budget_end:
            one_pass(index, tracer)
            index += 1
        result["layers"] = layer_metrics(
            tracer, args.workload, inputs, ops, untraced, pass_walls[traced_first:], op_walls[1 : traced_first - 1]
        )
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"env": result["env"], "layers": result["layers"], **tracer.dump()}, fh)

    result["probes"] = run_probes(os.path.join(args.work, "probes"))
    result["pass_walls"] = untraced
    result["attempted"] = index * len(ops)
    result["failed"] = len(failed_ops)
    result["failures"] = [{"pass": i, "op": label, "reason": reason} for i, label, reason in failed_ops[:20]]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, workload, inputs, ops, untraced_walls, traced_walls, untraced_op_walls):
    """Per-layer metrics of the traced passes, each per pass."""
    import workloads

    passes = len(traced_walls)
    reduced = tracer.reduce()
    traced_wall = sum(traced_walls) / passes
    metrics = {}
    for layer in LAYERS:
        self_s = reduced["layer_self_s"].get(layer, 0.0) / passes
        metrics[f"{layer}.calls"] = reduced["layer_calls"].get(layer, 0) / passes
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / traced_wall
    counts = tracer.counts
    steps = counts["process.sim_steps"]
    rows = counts["spectral.grid_rows_computed"]
    rows_written = workloads.grid_rows_written(workload, inputs) * passes
    metrics.update(
        {
            "process.density_points": counts["process.density_points"] / passes,
            "process.sim_steps": steps / passes,
            "process.sim_useful_frac": counts["process.sim_useful_steps"] / steps if steps else 1.0,
            "spectral.grid_rows_computed": rows / passes,
            "spectral.grid_useful_frac": rows_written / rows if rows else 1.0,
            "spectral.peak_alloc_mb": tracer.peak_bytes / 2**20,
            "espec.normals_drawn": counts["espec.normals_drawn"] / passes,
            "estimator.fits": counts["estimator.fits"] / passes,
            "estimator.fit_iterations": counts["estimator.fit_iterations"] / passes,
            "isotonic.pava_calls": reduced["name_calls"].get("isotonic.pava_monotone", 0) / passes,
            "harness.io_s": reduced["io_s"] / passes,
            "harness.bytes_written": sum(tree_bytes(op.out) for op in ops if op.out and os.path.isdir(op.out)),
            "trace.coverage": reduced["root_s"] / sum(traced_walls),
            "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        }
    )
    for command in SUBCOMMANDS:
        per_pass = [sum(walls[op.label] for op in ops if op.command == command) for walls in untraced_op_walls]
        metrics[f"cli.{command}.wall_s"] = float(statistics.median(per_pass))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
