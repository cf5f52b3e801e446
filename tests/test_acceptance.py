"""Acceptance suite: one test per release criterion, one [PASS]/[FAIL] line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines.
Criteria 6 and 7 are Monte Carlo studies; every criterion finishes in seconds.
"""

import itertools
import math
import time

import numpy as np
import pytest

import _mesh
from locstat.curves import ConstantCurve, FourierCurve, SampledCurve
from locstat.espec import (
    TailStudySpec,
    chi2_tail_study,
    limit_covariance,
    spectral_process_sample,
)
from locstat.estimator import fit_fourier_tvar, fit_monotone_tvar
from locstat.harness import (
    default_rate_model,
    likelihood_equivalence_decay,
    rate_study,
    wavy_alpha_model,
)
from locstat.isotonic import pava_monotone
from locstat.likelihood import SpectrumField, divergence_sandwich
from locstat.process import TvARModel, check_stability, simulate_tvar
from locstat.spectral import (
    FrequencyGrid,
    PrePeriodogram,
    ar_inverse_weight,
    quadratic_form_matrix,
    spectral_functional,
    weight_norms,
)


def _line(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    return ok


def _random_stable_alpha(rng, order):
    """Coefficients of a stable AR polynomial built from roots outside the
    unit disk (real roots and conjugate pairs)."""
    coeffs = np.array([1.0])
    remaining = order
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            radius = rng.uniform(1.1, 3.0)
            angle = rng.uniform(0.0, np.pi)
            root = radius * np.exp(1j * angle)
            block = np.array([1.0, -2 * np.real(1 / root), 1 / abs(root) ** 2])
            remaining -= 2
        else:
            root = rng.uniform(1.1, 3.0) * rng.choice([-1.0, 1.0])
            block = np.array([1.0, -1.0 / root])
            remaining -= 1
        coeffs = np.convolve(coeffs, block)
    return coeffs[1:]


def test_criterion_01_preperiodogram_identities():
    rng = np.random.default_rng(1001)
    worst_integral = 0.0
    worst_average = 0.0
    worst_paths = 0.0
    for i in range(50):
        n = int(rng.integers(16, 513))
        kind = i % 3
        if kind == 0:
            model = TvARModel((), float(rng.uniform(0.5, 2.0)))
        elif kind == 1:
            model = TvARModel([ConstantCurve(float(rng.uniform(-0.7, 0.7)))], ConstantCurve(1.0))
        else:
            model = TvARModel(
                [ConstantCurve(float(rng.uniform(-0.6, 0.6)))],
                SampledCurve(np.sort(rng.uniform(0.5, 2.0, 3))),
            )
        x = simulate_tvar(model, n, seed=int(rng.integers(2**31)))
        grid = FrequencyGrid(2 * n + 8)
        vals = PrePeriodogram(x).evaluate_grid(grid)

        integrals = vals.sum(axis=1) * grid.weight
        scale = max(1.0, float(np.max(x.values**2)))
        worst_integral = max(worst_integral, float(np.max(np.abs(integrals - x.values**2))) / scale)

        per = _mesh.periodogram(x, grid)
        per_scale = max(1.0, float(np.max(per)))
        worst_average = max(
            worst_average, float(np.max(np.abs(vals.mean(axis=0) - per))) / per_scale
        )

        phi_alpha = _random_stable_alpha(rng, 1 + i % 2)
        phi_model = TvARModel(
            [ConstantCurve(a) for a in phi_alpha],
            ConstantCurve(float(rng.uniform(0.5, 2.0))),
            validate=False,
        )
        phi = ar_inverse_weight(phi_model)
        a = spectral_functional(x, phi)
        b = float(x.values @ quadratic_form_matrix(phi, n) @ x.values) / (2 * np.pi * n)
        c = _mesh.spectral_functional(x, phi, grid)
        denom = max(abs(a), 1e-12)
        worst_paths = max(worst_paths, abs(b - a) / denom, abs(c - a) / denom)

    ok = worst_integral <= 1e-10 and worst_average <= 1e-10 and worst_paths <= 1e-8
    assert _line(
        1,
        "pre-periodogram identities",
        ok,
        f"50 series: integral err {worst_integral:.2e}, time-average err "
        f"{worst_average:.2e}, path disagreement {worst_paths:.2e}",
    )


def test_criterion_02_quadratic_form_norm_bounds():
    rng = np.random.default_rng(77)
    violations = 0
    checks = 0
    for i in range(20):
        if i % 2 == 0:
            a0 = rng.uniform(-0.3, 0.3)
            amp = rng.uniform(0.1, 0.9 - abs(a0))
            alpha = [
                FourierCurve(a0, a=[amp * rng.choice([-1, 1])], b=[rng.uniform(-0.2, 0.2) * amp])
            ]
            variance = SampledCurve(np.sort(rng.uniform(0.5, 2.5, int(rng.integers(2, 5)))))
            model = TvARModel(alpha, variance, validate=False)
        else:
            order = int(rng.integers(1, 4))
            coef = rng.uniform(-0.4, 0.4, order)
            model = TvARModel(
                [ConstantCurve(c) for c in coef], ConstantCurve(rng.uniform(0.5, 2.0)),
                validate=False,
            )
        phi = ar_inverse_weight(model)
        for n in (32, 64, 128, 256):
            U = quadratic_form_matrix(phi, n)
            norms = weight_norms(phi, n)
            spectral_norm = float(np.linalg.norm(U, 2))
            frob_sq = float(np.sum(U * U) / n)
            checks += 3
            if spectral_norm > norms.lag_sup_sum * (1 + 1e-12) + 1e-9:
                violations += 1
            if frob_sq > 2 * np.pi * norms.l2_discrete**2 * (1 + 1e-12) + 1e-9:
                violations += 1
            bound = norms.l2**2 + norms.lag_sup_sum * norms.variation_sup / n
            if norms.l2_discrete**2 > bound + 1e-9 * max(1.0, bound):
                violations += 1
    ok = violations == 0
    assert _line(
        2,
        "quadratic-form norm bounds",
        ok,
        f"{checks} inequality checks over 20 weights x 4 sizes, {violations} violations",
    )


def test_criterion_03_isotonic_oracle_equivalence():
    levels = [0.5, 1.0, 2.0]
    inputs = np.array(list(itertools.product(levels, repeat=6)))

    def max_min_fit(v):
        m = len(v)
        out = np.empty(m)
        for i in range(m):
            best = -np.inf
            for a in range(i + 1):
                worst = np.inf
                for b in range(i, m):
                    worst = min(worst, float(np.mean(v[a : b + 1])))
                best = max(best, worst)
            out[i] = best
        return out

    fits = np.array([pava_monotone(row) for row in inputs])

    worst_oracle = 0.0
    worst_mean = 0.0
    worst_idem = 0.0
    for row, fit in zip(inputs, fits):
        worst_oracle = max(worst_oracle, float(np.max(np.abs(fit - max_min_fit(row)))))
        worst_mean = max(worst_mean, abs(float(np.sum(fit) - np.sum(row))))
        worst_idem = max(worst_idem, float(np.max(np.abs(pava_monotone(fit) - fit))))

    # brute-force sweep: the fit must match or beat every nondecreasing
    # candidate on the 0.05 grid under the Gaussian objective
    grid = np.round(np.arange(0.5, 2.0001, 0.05), 10)
    candidates = np.array(list(itertools.combinations_with_replacement(grid, 6)))
    pava_obj = np.sum(np.log(fits) + inputs / fits, axis=1)
    best = np.full(len(inputs), np.inf)
    logs = np.sum(np.log(candidates), axis=1)
    recip = 1.0 / candidates
    chunk = 30000
    for s in range(0, len(candidates), chunk):
        block = logs[s : s + chunk, None] + recip[s : s + chunk] @ inputs.T
        np.minimum(best, block.min(axis=0), out=best)
    worst_margin = float(np.max(pava_obj - best))

    ok = (
        worst_oracle <= 1e-9
        and worst_margin <= 1e-12
        and worst_mean <= 1e-12
        and worst_idem <= 1e-15
    )
    assert _line(
        3,
        "isotonic oracle equivalence",
        ok,
        f"729 inputs: partition-oracle diff {worst_oracle:.2e}, objective margin vs "
        f"{len(candidates)} grid candidates {worst_margin:.2e}, mean drift {worst_mean:.2e}, "
        f"idempotence drift {worst_idem:.2e}",
    )


def test_criterion_04_log_spectrum_integral():
    rng = np.random.default_rng(20260819)
    grid = FrequencyGrid(4096)
    worst = 0.0
    for i in range(100):
        alpha = _random_stable_alpha(rng, 1 + i % 3)
        assert check_stability(alpha)
        # int log |A|^2 dlam is -int log g for the spectrum g = 1/|A|^2 (sigma^2 = 2 pi)
        g = TvARModel(alpha, 2 * np.pi)
        worst = max(worst, abs(float(_mesh.log_integral(g, np.array([0.5]), grid)[0])))
    ok = worst <= 1e-6
    assert _line(
        4,
        "log-spectrum integral identity",
        ok,
        f"100 stable polynomials of orders 1-3: max |integral| {worst:.2e}",
    )


def test_criterion_05_tail_bounds():
    start = time.time()
    etas = np.arange(1, 11) * 0.5
    violations = 0
    rows_checked = 0
    for design in ("unit", "linear"):
        for n in (50, 200):
            rows = chi2_tail_study(TailStudySpec.from_design(design, n, 100000, etas, seed=1))
            for row in rows:
                rows_checked += 1
                if row["upper99"] > row["bound_quadratic"] or row["upper99"] > row["bound_linear"]:
                    violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 60.0
    assert _line(
        5,
        "tail bounds",
        ok,
        f"2 designs x 2 sizes x {len(etas)} thresholds at 1e5 replications: "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_06_fluctuation_variance():
    noise = TvARModel((), 1.0)
    flat = SpectrumField.from_model(noise)

    phi_flat = None
    from locstat.spectral import constant_weight

    phi_flat = constant_weight(1.0)
    phi_ar = ar_inverse_weight(TvARModel([ConstantCurve(0.5)], ConstantCurve(1.0)))

    lim_flat = limit_covariance(phi_flat, phi_flat, flat)
    lim_ar = limit_covariance(phi_ar, phi_ar, flat)
    analytic_ok = abs(lim_flat - 2.0) <= 1e-10 * 2.0 and abs(
        lim_ar - 16.5 * np.pi**2
    ) <= 1e-10 * 16.5 * np.pi**2

    s_flat = spectral_process_sample(noise, phi_flat, 512, 5000, seed=2026)
    s_ar = spectral_process_sample(noise, phi_ar, 512, 5000, seed=2026)
    r_flat = s_flat.variance() / lim_flat
    r_ar = s_ar.variance() / lim_ar
    mc_ok = abs(r_flat - 1.0) <= 0.10 and abs(r_ar - 1.0) <= 0.10

    ok = analytic_ok and mc_ok
    assert _line(
        6,
        "fluctuation variance",
        ok,
        f"limits {lim_flat:.6g} / {lim_ar:.6g} (analytic 2 / {16.5 * np.pi**2:.6g}); "
        f"5000-replication variance ratios {r_flat:.4f} / {r_ar:.4f} (need within 10%)",
    )


def test_criterion_07_error_decay_rates():
    start = time.time()
    rows, summary = rate_study()
    elapsed = time.time() - start
    med_spec = [row["median_err_spectrum"] for row in rows]
    med_var = [row["median_err_variance"] for row in rows]
    slopes_ok = (
        -0.50 <= summary["slope_spectrum"] <= -0.18 and -0.50 <= summary["slope_variance"] <= -0.18
    )
    monotone_ok = all(a > b for a, b in zip(med_spec, med_spec[1:])) and all(
        a > b for a, b in zip(med_var, med_var[1:])
    )
    health_ok = all(row["all_converged"] and row["all_alpha_stable"] for row in rows)
    ok = slopes_ok and monotone_ok and health_ok and elapsed < 900.0
    assert _line(
        7,
        "error decay rates",
        ok,
        f"slopes {summary['slope_spectrum']:.3f} (spectrum) / {summary['slope_variance']:.3f} "
        f"(variance) in [-0.50, -0.18]; medians decreasing {monotone_ok}; {elapsed:.0f}s",
    )


def test_criterion_08_descent_and_determinism():
    model = default_rate_model()
    slack_violations = 0
    nondeterminism = 0
    fits = 0
    for seed in range(4):
        x = simulate_tvar(model, 512, seed=seed)
        for cfg, slack in (({"p": 1, "eps": 0.01}, 1e-12), ({"p": 1}, 1e-8)):
            first = fit_monotone_tvar(x, **cfg)
            second = fit_monotone_tvar(x, **cfg)
            fits += 1
            trace = [first.objective_trace[0]]
            for a, b in zip(first.wls_trace, first.pava_trace):
                trace.extend([a, b])
            for prev, nxt in zip(trace, trace[1:]):
                if nxt > prev + slack * max(1.0, abs(prev)):
                    slack_violations += 1
            if not (
                np.array_equal(first.alpha_hat, second.alpha_hat)
                and np.array_equal(first.sigma2_hat.knot_values, second.sigma2_hat.knot_values)
                and first.objective_trace == second.objective_trace
            ):
                nondeterminism += 1

    wavy = simulate_tvar(wavy_alpha_model(), 512, seed=5)
    f1 = fit_fourier_tvar(wavy, k_n=1)
    f2 = fit_fourier_tvar(wavy, k_n=1)
    fits += 1
    if not (
        f1.alpha_curve.a0 == f2.alpha_curve.a0
        and np.array_equal(f1.alpha_curve.a, f2.alpha_curve.a)
        and f1.sigma2 == f2.sigma2
        and f1.objective == f2.objective
    ):
        nondeterminism += 1

    ok = slack_violations == 0 and nondeterminism == 0
    assert _line(
        8,
        "descent and determinism",
        ok,
        f"{fits} fits: {slack_violations} trace increases beyond slack, "
        f"{nondeterminism} non-reproducible reruns",
    )


def test_criterion_09_likelihood_equivalence_decay():
    rows = likelihood_equivalence_decay()  # defaults: n in (256, 2048), 20 replications
    ratio = rows[1]["median_gap"] / rows[0]["median_gap"]
    ok = rows[1]["median_gap"] < 0.5 * rows[0]["median_gap"]
    assert _line(
        9,
        "likelihood equivalence decay",
        ok,
        f"median gap {rows[0]['median_gap']:.3e} at n=256 -> {rows[1]['median_gap']:.3e} "
        f"at n=2048 (ratio {ratio:.3f}, need < 0.5)",
    )


def test_criterion_10_divergence_sandwich():
    rng = np.random.default_rng(101)

    def random_field():
        order = int(rng.integers(1, 3))
        while True:
            alpha = rng.uniform(-0.6, 0.6, order)
            if check_stability(alpha):
                break
        return SpectrumField.from_coefficients(alpha, float(rng.uniform(0.4, 2.5)))

    violations = 0
    min_lower = math.inf
    min_upper = math.inf
    for _ in range(100):
        res = divergence_sandwich(random_field(), random_field())
        lower_gap = res["divergence"] - res["lower"]
        upper_gap = res["upper"] - res["divergence"]
        min_lower = min(min_lower, lower_gap)
        min_upper = min(min_upper, upper_gap)
        if lower_gap < 0 or upper_gap < 0:
            violations += 1
    ok = violations == 0
    assert _line(
        10,
        "divergence sandwich",
        ok,
        f"100 random spectrum pairs: {violations} violations "
        f"(tightest margins {min_lower:.2e} below, {min_upper:.2e} above)",
    )
