"""Simulate time-varying AR series and read off their local structure.

Demonstrates the model containers (curves + TvARModel), the simulator, and
the sign convention: the model is

    x[t] + alpha(t/n) x[t-1] = sigma(t/n) e[t],

coefficients on the LEFT, so alpha = +0.5 induces NEGATIVE lag-1
correlation.  Also shows the local variance tracking sigma^2(u) and the
local autocovariance and spectral-density evaluators.
"""

import numpy as np

from locstat import (
    ConstantCurve,
    SampledCurve,
    TvARModel,
    ar_autocov,
    simulate_tvar,
    spectral_density,
    wavy_alpha_model,
)


def lag1_corr(x):
    return float(np.corrcoef(x[:-1], x[1:])[0, 1])


def main(seed=11, n=4000):
    # constant coefficient, variance stepping 1 -> 2 at u = 2/5
    model = TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 1.0, 2.0, 2.0, 2.0]))
    x = simulate_tvar(model, n, seed=seed).values

    print("== sign convention ==")
    print(f"alpha = +0.5 on the left  -> sample lag-1 corr {lag1_corr(x):+.3f} (theory -0.5)")
    flipped = TvARModel(1, [ConstantCurve(-0.5)], ConstantCurve(1.0))
    y = simulate_tvar(flipped, n, seed=seed).values
    print(f"alpha = -0.5 on the left  -> sample lag-1 corr {lag1_corr(y):+.3f} (theory +0.5)")

    print("\n== local variance follows sigma^2(u) ==")
    early = x[: int(0.35 * n)]          # u <= 0.35, sigma^2 = 1
    late = x[int(0.45 * n) :]           # u >= 0.45, sigma^2 = 2
    # stationary AR(1) variance sigma^2 / (1 - alpha^2) = sigma^2 / 0.75
    print(f"var early {np.var(early):.3f} (theory {1.0 / 0.75:.3f})")
    print(f"var late  {np.var(late):.3f} (theory {2.0 / 0.75:.3f})")

    print("\n== evaluators at fixed rescaled time ==")
    for u in (0.25, 0.75):
        c0, c1 = ar_autocov(model, u, 1)
        f0 = spectral_density(model, u, 0.0)
        print(f"u={u}: cov(0)={c0:.3f} cov(1)={c1:.3f} f(u,0)={f0:.3f}")

    print("\n== time-varying coefficient ==")
    wavy = wavy_alpha_model()  # alpha(u) = 0.5 cos(2 pi u), sigma^2 = 1
    z = simulate_tvar(wavy, n, seed=seed).values
    thirds = np.array_split(z, 3)
    corrs = ", ".join(f"{lag1_corr(t):+.2f}" for t in thirds)
    mids = np.array([1 / 6, 1 / 2, 5 / 6])
    theory = ", ".join(f"{v:+.2f}" for v in -wavy.alpha[0].values(mids))
    print(f"lag-1 corr by thirds: {corrs}")
    print(f"-alpha(u) at third midpoints: {theory}")


if __name__ == "__main__":
    main()
