"""Record the golden outputs of the CLI and the demos.

Runs every subcommand at seeds 0 and 3 in-process, each into its own
directory, and every demo in ``demos/`` with warnings as errors, and writes
``tests/golden/outputs.json``: each result file parsed (JSON values, CSV
columns), each ``metadata.json`` without its ``versions`` entry (the
interpreter and NumPy versions, which differ between hosts), and each demo's
stdout.  ``tests/test_golden.py`` reruns them against that file.  Run from a
checkout:

    PYTHONPATH=src python tests/golden/record.py

A change that re-records the file moves outputs; the diff of the file lists
every value that moved.
"""

import contextlib
import csv
import io
import json
import runpy
import warnings
from pathlib import Path

from locstat.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "outputs.json"
DEMOS = sorted((HERE.parents[1] / "demos").glob("*.py"))
SEEDS = (0, 3)
N = 512

# (run name, subcommand, config or None, extra flags); the series of each seed
# comes from its simulate run, and likelihood-eval reads the default fit's fit.json
RUNS = (
    ("simulate", "simulate", None, ("--n", str(N))),
    ("fit", "fit", None, ()),
    ("fit_p2", "fit", {"p": 2}, ()),
    ("likelihood-eval", "likelihood-eval", None, ()),
    ("preperiodogram", "preperiodogram", None, ("--times", f"1,100,{N}", "--grid-size", "64")),
    ("rate-study", "rate-study", {"n_list": [128, 256, 512], "replications": 8}, ()),
    ("clt-study", "clt-study", {"n": 128, "replications": 200}, ()),
    ("prop33", "prop33", {"n_list": [64, 128], "replications": 50}, ()),
    ("tail-study", "tail-study", {"design": "linear", "n": 64, "replications": 20000}, ()),
    ("equivalence", "equivalence", {"n_list": [128, 256], "replications": 4}, ()),
)
SEEDED = {"simulate", "rate-study", "clt-study", "prop33", "tail-study", "equivalence"}
READS_SERIES = {"fit", "likelihood-eval", "preperiodogram"}


def run_commands(root):
    """Run every (seed, run) into root/seed<seed>/<run>; returns those directories
    in run order, keyed by "<run>@seed<seed>"."""
    dirs = {}
    for seed in SEEDS:
        base = Path(root) / f"seed{seed}"
        series = base / "simulate" / "series.csv"
        for name, command, config, flags in RUNS:
            out = base / name
            argv = [command, "--out", str(out), *flags]
            if command in SEEDED:
                argv += ["--seed", str(seed)]
            if command in READS_SERIES:
                argv += ["--series", str(series)]
            if command == "likelihood-eval":
                argv += ["--config", str(base / "fit" / "fit.json")]
            elif config is not None:
                path = base / f"{name}.config.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(config))
                argv += ["--config", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)  # bad input exits with "<command>: <message>"
            dirs[f"{name}@seed{seed}"] = out
    return dirs


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_file(path):
    """A result file as JSON values: a JSON file's payload (a metadata.json
    without its versions), or a CSV's columns as {name: [cells]}."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        if path.name == "metadata.json":
            payload.pop("versions")
        return payload
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {"columns": rows[0], **{name: [_cell(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}}


def run_demos():
    """Each demo's stdout, run as __main__ with warnings as errors."""
    outputs = {}
    for demo in DEMOS:
        buffer = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(buffer):
            warnings.simplefilter("error")
            runpy.run_path(str(demo), run_name="__main__")
        outputs[demo.name] = buffer.getvalue()
    return outputs


def collect(root):
    """The golden payload of a fresh run into root."""
    runs = {
        key: {path.name: parse_file(path) for path in sorted(out.iterdir())} for key, out in run_commands(root).items()
    }
    return {"runs": runs, "demos": run_demos()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        payload = collect(root)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
