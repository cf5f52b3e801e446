"""Likelihood contrasts: exact Whittle, conditional Gaussian, and their link.

Three views of the same fitting objective:

- whittle_contrast: frequency-domain contrast of a candidate spectrum
  against the pre-periodogram (exact lag-domain evaluation for AR models);
- the conditional contrast, likelihood_gap(...)["conditional"]: time-domain
  Gaussian likelihood of the residuals;
- the identity (1/2)(conditional - log 2 pi) = whittle + O(1/n) boundary
  terms, so the two orderings of candidates agree for moderate n
  (likelihood_gap evaluates both and the gap).

Also evaluates the divergence sandwich: the excess contrast of a wrong
candidate is trapped between two explicit multiples of its distance to the
truth.
"""

import numpy as np

from locstat import (
    SampledCurve,
    divergence_sandwich,
    kl_contrast,
    likelihood_equivalence_decay,
    likelihood_gap,
    simulate_tvar,
    TvARModel,
)


def main(seed=5):
    truth = TvARModel([0.5], SampledCurve([1.0, 1.0, 2.0, 2.0, 2.0]))
    x = simulate_tvar(truth, 1024, seed=seed)

    candidates = {
        "truth": truth,
        "wrong alpha": TvARModel([0.1], truth.sigma2),
        "frozen sigma": TvARModel([0.5], 1.6),
    }

    print("== candidate ordering under both contrasts ==")
    print(f"{'candidate':14s} {'whittle':>10s} {'(cond-log2pi)/2':>16s}")
    for name, g in candidates.items():
        contrasts = likelihood_gap(x, g)
        lt = 0.5 * (contrasts["conditional"] - np.log(2 * np.pi))
        print(f"{name:14s} {contrasts['whittle']:10.4f} {lt:16.4f}")
    print("(truth scores lowest under both; columns agree to O(1/n))")

    print("\n== the gap decays like 1/n ==")
    rows = likelihood_equivalence_decay(n_list=(256, 1024, 4096), replications=10, seed=seed)
    for row in rows:
        print(f"n={row['n']:5d}  median worst-candidate gap {row['median_gap']:.2e}")

    print("\n== divergence sandwich ==")
    f = TvARModel([0.5], truth.sigma2)
    g = TvARModel([0.2], 1.3)
    report = divergence_sandwich(g, f)
    excess = kl_contrast(g, f) - kl_contrast(f, f)
    print(
        f"lower {report['lower']:.5f} <= divergence {report['divergence']:.5f}"
        f" <= upper {report['upper']:.5f}"
    )
    print(f"excess asymptotic contrast, independent quadrature: {excess:.5f}")


if __name__ == "__main__":
    main()
