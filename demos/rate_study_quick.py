"""Scaled-down error-decay study with fully reproducible outputs.

A small version of the Monte Carlo study behind the rate-study command:
a few sample sizes, a dozen replications each.  Replication r reuses one
innovation stream across every n (common random numbers), so the medians
compare cleanly across sizes even at this budget.  Two reproducibility
properties are checked on the way out: float cells survive the CSV round
trip exactly, and the metadata sidecar carries no timestamps, so reruns
write identical bytes.
"""

import os
import tempfile

from locstat import rate_study, read_rows_csv, write_metadata, write_rows_csv


def main(seed=2026):
    rows, summary = rate_study(n_list=(256, 512, 1024, 2048), replications=12, seed=seed)

    print("== median fit errors over n (12 replications) ==")
    print(f"{'n':>6} {'k_n':>4} {'spectrum err':>14} {'variance err':>14}")
    for row in rows:
        print(f"{row['n']:>6} {row['k_n']:>4} {row['median_err_spectrum']:>14.6f} "
              f"{row['median_err_variance']:>14.6f}")
    print(f"log-log slopes: spectrum {summary['slope_spectrum']:+.3f}, "
          f"variance {summary['slope_variance']:+.3f}")

    print("\n== lossless CSV round trip, timestamp-free metadata ==")
    float_keys = ["eps", "median_err_spectrum", "median_err_variance", "median_iterations"]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "rows.csv")
        write_rows_csv(csv_path, rows)
        again = read_rows_csv(csv_path)
        exact = all(
            row[k] == orig[k]
            for row, orig in zip(again, rows)
            for k in float_keys + ["n", "k_n"]
        )
        print(f"numeric cells exact after round trip: {exact}")

        write_metadata(tmp, "rate-study", config_text="demo", seed=seed)
        with open(os.path.join(tmp, "metadata.json"), "rb") as fh:
            first = fh.read()
        write_metadata(tmp, "rate-study", config_text="demo", seed=seed)
        with open(os.path.join(tmp, "metadata.json"), "rb") as fh:
            second = fh.read()
        print(f"metadata bytes identical across reruns: {first == second}")


if __name__ == "__main__":
    main()
