import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
    assert len(layers) == 10
    assert sorted((row["layer"], row["threads"]) for row in rows) == sorted((name, t) for name in layers for t in (1, 2))
    assert all(row["n"] == 64 and 0 < row["best_s"] <= row["median_s"] and row["peak_mib"] > 0 for row in rows)
