"""Pre-periodogram identities, checked numerically on one simulated series.

The pre-periodogram J(t/n, lambda) is the lag-product kernel that localizes
the periodogram at a single time point.  Three exact identities make it
trustworthy as the building block of the spectral functionals:

1. integrating J(t/n, .) over frequency returns x_t^2 exactly;
2. averaging J over t returns the ordinary periodogram pointwise;
3. the functional mean_t int phi J dlam of ``spectral_functional``, an exact
   lag-product sum, equals the frequency-quadrature sum of
   ``TestFunction.values`` against the ``PrePeriodogram.evaluate_grid`` table
   and the quadratic form x' M x / (2 pi n) with M = ``quadratic_form_matrix``.
"""

import numpy as np

from locstat import (
    FrequencyGrid,
    PrePeriodogram,
    SampledCurve,
    TvARModel,
    ar_inverse_weight,
    constant_weight,
    quadratic_form_matrix,
    simulate_tvar,
    spectral_functional,
)


def main(seed=3, n=96):
    model = TvARModel([0.4], SampledCurve([0.8, 1.6]))
    series = simulate_tvar(model, n, seed=seed)
    J = PrePeriodogram(series)
    grid = FrequencyGrid(2 * n + 8)  # midpoint rule is exact at this size

    print("== identity 1: int J(t/n, .) dlam = x_t^2 ==")
    heat = J.evaluate_grid(grid)
    integrals = np.sum(heat, axis=1) * grid.weight
    err1 = float(np.max(np.abs(integrals - series.values**2)))
    print(f"max |integral - x_t^2| over t: {err1:.2e}")

    print("\n== identity 2: (1/n) sum_t J = periodogram ==")
    avg = heat.mean(axis=0)
    t = np.arange(1, n + 1)
    per = np.abs(np.exp(-1j * np.outer(grid.nodes, t)) @ series.values) ** 2 / (2 * np.pi * n)
    err2 = float(np.max(np.abs(avg - per)))
    print(f"max pointwise gap on a {grid.size}-point grid: {err2:.2e}")

    print("\n== identity 3: three functional paths agree ==")
    design = np.arange(1, n + 1) / n
    for phi, name in [
        (constant_weight(1.0), "phi = 1"),
        (ar_inverse_weight(model), "phi = 1/f"),
    ]:
        lag = spectral_functional(series, phi)
        weights = phi.values(design[:, None], grid.nodes[None, :])
        quad = float(np.sum(weights * heat)) * grid.weight / n
        mat = float(series.values @ quadratic_form_matrix(phi, n) @ series.values) / (2 * np.pi * n)
        spread = max(abs(lag - quad), abs(lag - mat))
        print(f"{name:10s} lag {lag:.10f}  spread across paths {spread:.2e}")


if __name__ == "__main__":
    main()
