import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "layers.py"
COMPARE = ROOT / "bench" / "compare.py"


def test_layer_bench_writes_one_row_per_layer_n_and_thread_count(tmp_path):
    # the schema only: no timing is gated
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--n", "64", "--repeats", "3"], check=True)
    result = json.loads(out.read_text())
    assert set(result) == {"python", "numpy", "src_lines", "repeats", "rows"}
    assert result["python"] == ".".join(map(str, sys.version_info[:3]))
    assert result["src_lines"] > 0 and result["repeats"] == 3
    rows = result["rows"]
    assert all(set(row) == {"layer", "n", "threads", "best_s", "median_s", "peak_mib"} for row in rows)
    layers = {row["layer"] for row in rows}
    assert len(layers) == 11
    assert sorted((row["layer"], row["threads"]) for row in rows) == sorted((name, t) for name in layers for t in (1, 2))
    assert all(row["n"] == 64 and 0 < row["best_s"] <= row["median_s"] and row["peak_mib"] > 0 for row in rows)


def test_compare_writes_both_sides_and_the_verdicts(tmp_path):
    # the schema only: one short pair of the committed tree against this checkout
    out = tmp_path / "compare.json"
    argv = ["--base", "HEAD", "--workload", "series-analysis", "--pairs", "1", "--seconds", "1", "--out", str(out)]
    subprocess.run([sys.executable, str(COMPARE), *argv], check=True, capture_output=True)
    report = json.loads(out.read_text())
    assert set(report) == {"base", "workload", "seed", "seconds", "pairs", "metrics", "runs"}
    assert len(report["base"]) == 40 and (report["workload"], report["seed"], report["pairs"]) == ("series-analysis", 0, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(report["metrics"]) == [metric["name"] for metric in declared]
    for entry in report["metrics"].values():
        assert set(entry) == {
            "unit", "better", "bound", "base", "change", "wins", "rel_gap", "base_rel_spread",
            "claim", "unresolved", "regressed",
        }
        for side in ("base", "change"):
            assert set(entry[side]) == {"median", "q1", "q3", "runs"} and len(entry[side]["runs"]) == 1
            assert entry[side]["q1"] == entry[side]["median"] == entry[side]["q3"] == entry[side]["runs"][0]
        assert entry["wins"] in (0, 1)
        # one pair leaves the base no quartile spread, so its one win is a claim
        assert entry["claim"] == (entry["wins"] == 1)
    (run,) = report["runs"]
    assert run["first"] == "base" and run["base"]["ok_frac"] == run["change"]["ok_frac"] == 1.0
