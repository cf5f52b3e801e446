"""Quasi-likelihood fit of a trigonometric AR coefficient curve.

fit_fourier_tvar fits the order-1 class alpha(u) = a0
+ sum_j a_j cos(2 pi j u) + b_j sin(2 pi j u) with a constant innovation
variance profiled out of the exact Whittle contrast, by one least-squares
solve.  On data whose
coefficient really oscillates, the k_n = 1 fit recovers the curve and beats
the best constant-coefficient candidate, and the reported objective is
exactly the Whittle contrast of the fitted model -- the same functional the
likelihood demos evaluate for hand-built candidates.
"""

import numpy as np

from locstat import (
    TvARModel,
    fit_fourier_tvar,
    simulate_tvar,
    wavy_alpha_model,
    whittle_contrast,
)


def main(seed=4, n=2048):
    model = wavy_alpha_model()  # alpha(u) = 0.5 cos(2 pi u), unit variance
    series = simulate_tvar(model, n, seed=seed)

    print("== coefficient recovery, k_n = 1 ==")
    fit = fit_fourier_tvar(series, k_n=1)
    print(f"constrained {fit.constrained}, converged {fit.converged}")
    print(f"a0 {fit.alpha_curve.a0:+.4f}   (truth +0.0000)")
    print(f"a1 {float(fit.alpha_curve.a[0]):+.4f}   (truth +0.5000)")
    print(f"b1 {float(fit.alpha_curve.b[0]):+.4f}   (truth +0.0000)")
    print(f"sigma2 {fit.sigma2:.4f}   (truth 1.0000)")

    print("\n== objective = Whittle contrast of the fitted model ==")
    for k_n in (0, 1):
        res = fit_fourier_tvar(series, k_n=k_n)
        fitted = TvARModel([res.alpha_curve], res.sigma2)
        w = whittle_contrast(series, fitted)
        print(f"k_n={k_n}  objective {res.objective:.10f}  contrast {w:.10f}  "
              f"gap {abs(res.objective - w):.2e}")

    print("\n== the oscillating class beats the constant class ==")
    res0 = fit_fourier_tvar(series, k_n=0)
    res1 = fit_fourier_tvar(series, k_n=1)
    print(f"best constant alpha {res0.alpha_curve.a0:+.4f}  objective {res0.objective:.6f}")
    print(f"best wavy curve               objective {res1.objective:.6f}")
    print(f"improvement {res0.objective - res1.objective:.6f} (positive means wavy wins)")


if __name__ == "__main__":
    main()
