"""Gaussian fluctuation limits of the spectral functionals.

The centered functional sqrt(n) (F_n - F_infinity) is asymptotically normal
with covariance 2 pi int int phi(u, lam) {phi(u, lam) + phi(u, -lam)}
f(u, lam)^2 dlam du.  Three cases with closed-form limits are checked
against Monte Carlo variances.  A separate deterministic check computes the
exact finite-n expectation E F_n = tr(M Sigma) / (2 pi n) from the
covariance of the simulated process: for a weight with lag support L, the
lag path loses k/n of the mass at lag k, so on a stationary AR(1)
n (E F_n - F_infinity) is a constant -- here 4 pi / 3 -- at every n, while
a lag-0 weight has no deficit at all.  With a time-varying coefficient
0.5 cos(2 pi u) the O(1/n) bias remains: n (E F_n - F_infinity) settles to
a constant as n grows.
"""

import numpy as np

from locstat import (
    ConstantCurve,
    FourierCurve,
    SampledCurve,
    TvARModel,
    ar_inverse_weight,
    constant_weight,
    expected_functional_trace,
    limit_covariance,
    spectral_functional_limit,
    spectral_process_sample,
    white_noise_model,
)


def main(seed=21, n=512, replications=3000):
    flat = constant_weight(1.0)
    ar1 = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    cases = [
        # phi = 1 on unit noise: 2 pi * 2 * (1/2pi)^2 * 2pi = 2
        ("unit noise, flat weight", white_noise_model(1.0), flat, 2.0),
        # phi = 1, sigma^2 steps 1 -> 2: 2 mean(sigma^4) = (1 + 4) = 5
        ("variance step 1 -> 2, flat weight",
         TvARModel(0, [], SampledCurve([1.0, 2.0])), flat, 5.0),
        # phi = 2 pi (1.25 + cos lam) on unit noise: 4 pi int (1.25+cos)^2 = 16.5 pi^2
        ("unit noise, AR-inverse weight", white_noise_model(1.0),
         ar_inverse_weight(ar1), 16.5 * np.pi**2),
    ]

    print(f"== CLT variance vs limit covariance (n = {n}, {replications} replications) ==")
    for label, model, phi, closed_form in cases:
        limit = limit_covariance(phi, phi, model)
        sample = spectral_process_sample(model, phi, n, replications, seed=seed)
        print(f"{label:36s} limit {limit:9.4f} (closed form {closed_form:9.4f})  "
              f"mc/limit {sample.variance() / limit:.4f}")

    print("\n== exact finite-n expectation via the trace identity ==")
    phi = ar_inverse_weight(ar1)
    wavy = TvARModel(1, [FourierCurve(0.0, a=[0.5], b=[0.0])], ConstantCurve(1.0))
    limit = spectral_functional_limit(phi, ar1)
    flat_limit = spectral_functional_limit(flat, ar1)
    wavy_limit = spectral_functional_limit(phi, wavy)
    print(f"AR(1) with alpha = 0.5 (4 pi / 3 = {4 * np.pi / 3:.6f}) and with alpha(u) = 0.5 cos(2 pi u)")
    print(f"{'n':>5} {'flat weight gap':>16} {'AR-inverse n*gap':>17} {'time-varying n*gap':>19}")
    for size in (32, 64, 128, 256, 1024, 4096):
        gap0 = expected_functional_trace(ar1, flat, size) - flat_limit
        gap1 = expected_functional_trace(ar1, phi, size) - limit
        gap2 = expected_functional_trace(wavy, phi, size) - wavy_limit
        print(f"{size:>5} {gap0:>16.2e} {size * gap1:>17.6f} {size * gap2:>19.6f}")


if __name__ == "__main__":
    main()
