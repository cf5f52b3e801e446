import math

import numpy as np
import pytest

import _mesh
from locstat.curves import ConstantCurve, Curve, FourierCurve, SampledCurve
from locstat.likelihood import (
    SpectrumField,
    ar_log_spectrum_integral,
    conditional_likelihood,
    divergence_sandwich,
    kl_contrast,
    kl_divergence,
    log_riemann_remainder,
    whittle_contrast,
)
from locstat.process import TvARModel, simulate_tvar, white_noise_model
from locstat.spectral import FrequencyGrid, periodogram


class ExpCurve(Curve):
    # sigma^2(u) = e^u; log sigma^2 linear in u makes boundary terms exact
    def values(self, u):
        return np.exp(np.asarray(u, dtype=float))


def step_model():
    return TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 2.0]))


def test_spectrum_field_from_model_matches_density():
    m = step_model()
    g = SpectrumField.from_model(m)
    lam = np.linspace(-np.pi, np.pi, 7)
    u = np.full(7, 0.25)
    expected = 1.0 / (2 * np.pi) / (1.25 + np.cos(lam))
    np.testing.assert_allclose(g.values(u, lam), expected, rtol=1e-13)


def test_spectrum_field_from_coefficients_validates():
    SpectrumField.from_coefficients(np.array([0.5]), 1.0)
    with pytest.raises(ValueError):
        SpectrumField.from_coefficients(np.array([1.1]), 1.0)
    SpectrumField.from_coefficients(np.array([1.1]), 1.0, validate=False)


def test_whittle_exact_path_matches_quadrature():
    m = step_model()
    x = simulate_tvar(m, 64, seed=3)
    g = SpectrumField.from_model(m)
    exact = whittle_contrast(x, g)
    quad = _mesh.whittle_contrast(x, g, FrequencyGrid(8192))
    assert quad == pytest.approx(exact, abs=1e-10)


def test_whittle_white_noise_closed_form():
    x = simulate_tvar(step_model(), 100, seed=4)
    val = whittle_contrast(x, SpectrumField.from_model(white_noise_model(1.0)))
    closed = 0.5 * math.log(1 / (2 * math.pi)) + 0.5 * np.mean(x.values**2)
    assert val == pytest.approx(closed, abs=1e-12)


def test_whittle_stationary_candidate_is_classical_whittle():
    x = simulate_tvar(step_model(), 128, seed=5)
    g = SpectrumField.from_coefficients(np.array([0.3]), 1.2)
    grid = FrequencyGrid(4096)
    per = periodogram(x, grid)
    gv = g.values(np.full(grid.size, 0.5), grid.nodes)
    classical = np.sum((np.log(gv) + per / gv) * grid.weight) / (4 * np.pi)
    assert whittle_contrast(x, g) == pytest.approx(classical, abs=1e-12)


def test_whittle_rejects_nonpositive_candidate():
    x = simulate_tvar(white_noise_model(1.0), 32, seed=0)
    bad = TvARModel(0, (), SampledCurve([1.0, -1.0]), validate=False)
    with pytest.raises(ValueError, match="strictly positive"):
        whittle_contrast(x, bad)


def test_conditional_likelihood_frozen_small_case():
    # x = (1, -1), alpha = 1, sigma2 = 1: single residual x_2 + x_1 = 0,
    # so the average of log sigma2 + e^2/sigma2 over t=2 is 0... divided by n
    val = conditional_likelihood(np.array([1.0, -1.0]), np.array([1.0]), 1.0)
    assert val == 0.0


def test_conditional_likelihood_white_noise_closed_form():
    x = np.array([1.0, 2.0, -1.0])
    val = conditional_likelihood(x, np.array([]), 2.0)
    expected = (3 * math.log(2.0) + np.sum(x**2) / 2.0) / 3
    assert val == pytest.approx(expected, rel=1e-14)


def test_conditional_likelihood_accepts_curve_variance():
    x = simulate_tvar(step_model(), 50, seed=6)
    a = conditional_likelihood(x, np.array([0.5]), SampledCurve([1.0, 2.0]))
    b = conditional_likelihood(x, np.array([0.5]), SampledCurve([2.0, 4.0]))
    assert a != b


def test_conditional_likelihood_errors():
    with pytest.raises(ValueError):
        conditional_likelihood(np.array([1.0]), np.array([0.5]), 1.0)  # n <= p
    with pytest.raises(ValueError):
        conditional_likelihood(np.array([1.0, 2.0]), np.array([0.5]), -1.0)


def test_likelihood_equivalence_gap_shrinks_with_n():
    m = step_model()
    g = SpectrumField.from_model(m)
    gaps = {}
    for n in (128, 1024):
        x = simulate_tvar(m, n, seed=7)
        lt = conditional_likelihood(x, np.array([0.5]), m.sigma2)
        ln = whittle_contrast(x, g)
        gaps[n] = abs(0.5 * (lt - math.log(2 * math.pi)) - ln)
    assert gaps[1024] < gaps[128] / 2


def test_kl_divergence_zero_iff_equal():
    f = SpectrumField.from_model(step_model())
    assert kl_divergence(f, f) == pytest.approx(0.0, abs=1e-14)
    g = SpectrumField.from_coefficients(np.array([0.3]), 1.5)
    assert kl_divergence(g, f) > 1e-3


def test_kl_divergence_equals_contrast_difference():
    f = SpectrumField.from_model(step_model())
    g = SpectrumField.from_coefficients(np.array([0.2]), 1.4)
    direct = kl_divergence(g, f)
    via_contrast = kl_contrast(g, f) - kl_contrast(f, f)
    assert direct == pytest.approx(via_contrast, rel=1e-9, abs=1e-12)


def test_kl_contrast_minimized_at_truth():
    f = SpectrumField.from_model(step_model())
    at_truth = kl_contrast(f, f)
    for alpha, s2 in [(0.3, 1.0), (0.5, 1.2), (0.0, 1.5), (0.7, 2.0)]:
        g = SpectrumField.from_coefficients(np.array([alpha]), s2)
        assert kl_contrast(g, f) > at_truth


def test_divergence_sandwich_holds_on_fixed_pairs():
    f = SpectrumField.from_model(step_model())
    for alpha, s2 in [(0.3, 1.2), (0.0, 1.0), (0.6, 0.9), (-0.4, 2.0)]:
        g = SpectrumField.from_coefficients(np.array([alpha]), s2)
        res = divergence_sandwich(g, f)
        assert res["lower"] <= res["divergence"] <= res["upper"]
        assert res["rho_sq"] >= 0
        assert res["m_star"] >= 1 / res["omega"] - 1e-12


def test_divergence_sandwich_frozen_m_star():
    # sup of 1/g over the domain for the AR(1)-inverse with alpha = 0.5,
    # sigma2 = 1 is 2 pi (1.5)^2 / 1 = 4.5 pi at lam = 0
    f = SpectrumField.from_coefficients(np.array([0.5]), 1.0)
    res = divergence_sandwich(f, f)
    assert res["m_star"] == pytest.approx(4.5 * np.pi, rel=1e-4)


def test_log_riemann_remainder_exponential_variance():
    # log sigma^2(u) = u: the design average minus the integral is exactly
    # ((n+1)/2n - 1/2)/2 = 1/(4n)
    for n in (10, 128):
        m = TvARModel(1, [ConstantCurve(0.4)], ExpCurve())
        g = SpectrumField.from_model(m)
        assert log_riemann_remainder(g, n) == pytest.approx(1 / (4 * n), abs=1e-13)


def test_log_riemann_remainder_generic_path_agrees():
    # white noise of variance e^u has the flat spectrum e^u / (2 pi); the mesh
    # sum of its log over frequencies is the oracle of the Kolmogorov path
    flat_exp = TvARModel(0, (), ExpCurve())
    n = 64
    val = log_riemann_remainder(flat_exp, n)
    assert val == pytest.approx(1 / (4 * n), abs=1e-10)
    oracle = _mesh.log_riemann_remainder(flat_exp, n, FrequencyGrid(512), 4096)
    assert val == pytest.approx(oracle, rel=1e-12)


def test_log_riemann_remainder_zero_for_constant_variance():
    g = SpectrumField.from_coefficients(np.array([0.5]), 1.7)
    assert log_riemann_remainder(g, 33) == pytest.approx(0.0, abs=1e-14)


def test_ar_log_spectrum_integral_vanishes_for_stable_models():
    # Szego/Kolmogorov: int log |1 + sum alpha_j e^{i lam j}|^2 dlam = 0
    assert ar_log_spectrum_integral(np.array([0.5])) == pytest.approx(0.0, abs=1e-10)
    assert ar_log_spectrum_integral(np.array([1.5, 0.56])) == pytest.approx(0.0, abs=1e-10)
    assert ar_log_spectrum_integral(np.array([])) == pytest.approx(0.0, abs=1e-14)


def test_whittle_contrast_orders_candidates_sensibly():
    # truth should beat clearly wrong candidates on average
    m = step_model()
    g_true = SpectrumField.from_model(m)
    g_bad = SpectrumField.from_coefficients(np.array([-0.5]), 4.0)
    better = 0
    for seed in range(10):
        x = simulate_tvar(m, 512, seed=seed)
        if whittle_contrast(x, g_true) < whittle_contrast(x, g_bad):
            better += 1
    assert better >= 9


def test_whittle_time_varying_alpha_uses_local_coefficients():
    # a candidate with alpha(u) matching the generating curve must beat the
    # frozen-coefficient candidate on average for a strongly varying model
    m = TvARModel(1, [FourierCurve(0.0, a=[0.6])], ConstantCurve(1.0))
    g_var = SpectrumField.from_model(m)
    g_const = SpectrumField.from_coefficients(np.array([0.0]), 1.0)
    wins = 0
    for seed in range(10):
        x = simulate_tvar(m, 512, seed=seed)
        if whittle_contrast(x, g_var) < whittle_contrast(x, g_const):
            wins += 1
    assert wins >= 9
