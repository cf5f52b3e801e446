"""Parent-against-change end-to-end timing: alternating perfbench runs of two trees.

Extracts the committed tree of --base (``git archive REV | tar -x``) into a
temporary directory and runs that tree's own perfbench/run.py and this
checkout's, one after the other, --pairs times, flipping which side runs
first each pair.  Run from a checkout:

    python bench/compare.py --base REV --workload W [--seed 0] [--seconds 50] [--pairs 10] --out FILE

The JSON holds every run and, for each end-to-end metric BENCHMARK.json
declares, each side's median and quartiles, the pairs the change won (ties
count for neither side), and three verdicts:

- claim: the change won at least 9 pairs in 10 and its median is better than
  the base's by more than the base's quartile spread;
- unresolved: the base's quartile spread, relative to its median, exceeds the
  metric's bound, and not every change run is better than every base run;
- regressed: the change's median is worse than the base's by more than the
  bound, relative to the base's median.

A run that exits nonzero or reports correct: false stops the comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
CLAIM_WIN_FRACTION = 0.9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="alternating perfbench runs of a base revision and this checkout")
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    return args


def extract(rev, dest):
    """Write the committed tree of rev into dest; return the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_perfbench(tree, args):
    """One untraced perfbench run of tree; its last stdout line as JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"perfbench in {tree} reports correct: false ({result['failed']} failed)")
    return result


def quartiles(values):
    """(q1, median, q3) of values, inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric, base, change):
    """The verdicts of one end-to-end metric over paired runs base[i], change[i]."""
    sign = 1.0 if metric["better"] == "lower" else -1.0

    def gain(b, c):  # positive when c is better than b
        return sign * (b - c)

    sides = {}
    for side, values in zip(SIDES, (base, change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    base_median = sides["base"]["median"]
    spread = sides["base"]["q3"] - sides["base"]["q1"]
    gap = gain(base_median, sides["change"]["median"])
    wins = sum(gain(b, c) > 0 for b, c in zip(base, change))
    every_run_better = all(gain(b, c) > 0 for b in base for c in change)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **sides,
        "wins": wins,
        # every metric of a correct run is positive, so the relative figures are defined
        "rel_gap": gap / base_median,
        "base_rel_spread": spread / base_median,
        "claim": wins >= CLAIM_WIN_FRACTION * len(base) and gap > spread,
        "unresolved": spread / base_median > metric["bound"] and not every_run_better,
        "regressed": -gap / base_median > metric["bound"],
    }


def main(argv=None):
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="locstat-base-") as tmp:
        commit = extract(args.base, tmp)
        trees = {"base": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"pair": pair, "first": order[0]}
            for side in order:
                result = run_perfbench(trees[side], args)
                run[side] = {name: entry["value"] for name, entry in result["metrics"].items()}
            runs.append(run)
            print(f"pair {pair + 1}/{args.pairs}: " + " ".join(f"{s} wall_s={run[s]['wall_s']:.4f}" for s in order))
    report = {
        "base": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "metrics": {
            m["name"]: summarize(m, [r["base"][m["name"]] for r in runs], [r["change"][m["name"]] for r in runs])
            for m in metrics
        },
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["metrics"].items():
        verdicts = [v for v in ("claim", "unresolved", "regressed") if entry[v]]
        print(
            f"{name}: base {entry['base']['median']:.6g} [{entry['base']['q1']:.6g}, {entry['base']['q3']:.6g}] "
            f"change {entry['change']['median']:.6g} [{entry['change']['q1']:.6g}, {entry['change']['q3']:.6g}] "
            f"wins {entry['wins']}/{args.pairs} {' '.join(verdicts) or 'no claim'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
