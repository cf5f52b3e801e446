"""Exponential tail bounds for weighted centered chi-square sums.

The statistic S = n^{-1/2} sum_i lambda_i (Z_i^2 - 1) is the building block
of the deviation analysis for quadratic forms.  Two closed-form bounds
control P(|S| >= eta): a Gaussian-like bound 2 exp(-eta^2 / (8 (R^2
+ L eta / sqrt(n)))) and a cruder purely exponential one 6 exp(-eta /
(16 R)).  The study simulates S in bulk and checks that even the 99% upper
confidence limit of the empirical tail stays below both bounds.
"""

import numpy as np

from locstat import TailStudySpec, chi2_tail_study


def show(title, spec):
    rows = chi2_tail_study(spec)
    lam = spec.lambdas
    r = float(np.sqrt(np.mean(lam**2)))
    print(f"== {title} (n = {spec.n}, R = {r:.3f}, "
          f"{spec.replications} replications) ==")
    print(f"{'eta':>4} {'empirical':>10} {'upper99':>10} {'quad bound':>11} {'lin bound':>10}")
    ok = True
    for row in rows:
        cap = min(row["bound_quadratic"], row["bound_linear"])
        ok = ok and row["upper99"] <= cap
        print(f"{row['eta']:>4.1f} {row['empirical']:>10.2e} {row['upper99']:>10.2e} "
              f"{row['bound_quadratic']:>11.3e} {row['bound_linear']:>10.3e}")
    print(f"upper99 below both bounds at every threshold: {ok}\n")


def main(seed=17):
    etas = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    show("unit weights", TailStudySpec.from_design("unit", 64, 200_000, etas, seed=seed))
    show("linear weights 1 + i/n", TailStudySpec.from_design("linear", 64, 200_000, etas, seed=seed + 1))


if __name__ == "__main__":
    main()
