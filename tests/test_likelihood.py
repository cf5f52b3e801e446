import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _mesh
from locstat.curves import ConstantCurve, Curve, FourierCurve, SampledCurve
from locstat.likelihood import (
    SpectrumField,
    ar_log_spectrum_integral,
    conditional_likelihood,
    divergence_sandwich,
    kl_contrast,
    kl_divergence,
    likelihood_gap,
    log_riemann_remainder,
    whittle_contrast,
)
from locstat.process import TvARModel, _as_model, simulate_tvar, spectral_density, white_noise_model
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
    assert g is m
    lam = np.linspace(-np.pi, np.pi, 7)
    u = np.full(7, 0.25)
    expected = 1.0 / (2 * np.pi) / (1.25 + np.cos(lam))
    np.testing.assert_allclose(spectral_density(g, u, lam), expected, rtol=1e-13)


def test_spectrum_field_from_coefficients_validates():
    SpectrumField.from_coefficients(np.array([0.5]), 1.0)
    with pytest.raises(ValueError):
        SpectrumField.from_coefficients(np.array([1.1]), 1.0)
    SpectrumField.from_coefficients(np.array([1.1]), 1.0, validate=False)


@pytest.mark.parametrize("alpha, sigma2", [([0.5], 1.7), ([0.3, -0.1], SampledCurve([0.8, 1.4])), ([], 2.0)])
def test_spectrum_field_from_coefficients_is_the_model_constructor(alpha, sigma2):
    g = SpectrumField.from_coefficients(alpha, sigma2)
    assert type(g) is TvARModel
    assert g.describe() == TvARModel.from_coefficients(alpha, sigma2).describe()


@pytest.mark.parametrize("spectrum", [1.0, "ar1", lambda u, lam: np.ones(np.broadcast(u, lam).shape)])
@pytest.mark.parametrize("construct", [SpectrumField.from_model, _as_model])
def test_only_a_model_is_a_spectrum(construct, spectrum):
    with pytest.raises(ValueError, match="expected a TvARModel"):
        construct(spectrum)


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
    gv = spectral_density(g, np.full(grid.size, 0.5), grid.nodes)
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
    g = TvARModel.from_coefficients([1.0], 1.0, validate=False)
    val = conditional_likelihood(np.array([1.0, -1.0]), g)
    assert val == 0.0


def test_conditional_likelihood_white_noise_closed_form():
    x = np.array([1.0, 2.0, -1.0])
    val = conditional_likelihood(x, white_noise_model(2.0))
    expected = (3 * math.log(2.0) + np.sum(x**2) / 2.0) / 3
    assert val == pytest.approx(expected, rel=1e-14)


def test_conditional_likelihood_accepts_curve_variance():
    x = simulate_tvar(step_model(), 50, seed=6)
    a = conditional_likelihood(x, TvARModel.from_coefficients([0.5], SampledCurve([1.0, 2.0])))
    b = conditional_likelihood(x, TvARModel.from_coefficients([0.5], SampledCurve([2.0, 4.0])))
    assert a != b


def test_conditional_likelihood_errors():
    with pytest.raises(ValueError, match="need more than p=1"):
        conditional_likelihood(np.array([1.0]), TvARModel.from_coefficients([0.5], 1.0))
    negative = TvARModel.from_coefficients([0.5], -1.0, validate=False)
    with pytest.raises(ValueError, match="strictly positive at the design points"):
        conditional_likelihood(np.array([1.0, 2.0]), negative)
    with pytest.raises(ValueError, match="expected a TvARModel"):
        conditional_likelihood(np.array([1.0, 2.0]), 1.0)


def _per_t_conditional(x, model):
    # the definition, one t at a time: e_t = x_t + sum_j alpha_j(t/n) x_{t-j}
    n, p = len(x), model.p
    total = 0.0
    for t in range(p + 1, n + 1):
        u = np.array([t / n])
        e = x[t - 1] + sum(float(model.alpha[j - 1].values(u)[0]) * x[t - 1 - j] for j in range(1, p + 1))
        s2 = float(model.sigma2.values(u)[0])
        total += math.log(s2) + e * e / s2
    return total / n


@pytest.mark.parametrize(
    "alpha",
    [
        [FourierCurve(0.0, a=[0.5], b=[0.0])],
        [SampledCurve([0.2, -0.3, 0.4])],
        [FourierCurve(0.3, a=[0.1], b=[0.05]), ConstantCurve(0.1)],
        [SampledCurve([0.5, -0.2]), SampledCurve([0.1, 0.2, -0.1])],
    ],
)
def test_time_varying_conditional_likelihood_matches_per_t_oracle(alpha):
    model = TvARModel(len(alpha), alpha, SampledCurve([1.0, 2.0, 1.5]))
    x = simulate_tvar(model, 300, seed=4).values
    assert conditional_likelihood(x, model) == pytest.approx(_per_t_conditional(x, model), rel=1e-12)


def _parent_conditional(x, alpha, sigma2):
    # the constant-coefficient formula this contrast had before it took a model
    p, n = len(alpha), len(x)
    resid = x[p:].copy()
    for j in range(1, p + 1):
        resid += alpha[j - 1] * x[p - j : n - j]
    s2 = sigma2.values(np.arange(p + 1, n + 1) / n)
    return float(np.sum(np.log(s2) + resid**2 / s2) / n)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=3),
    values=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
    n=st.integers(4, 80),
    seed=st.integers(0, 2**16),
)
def test_constant_conditional_likelihood_is_the_scalar_formula_bit_for_bit(alpha, values, n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    sigma2 = SampledCurve(values)
    model = TvARModel.from_coefficients(alpha, sigma2, validate=False)
    assert conditional_likelihood(x, model) == _parent_conditional(x, np.array(alpha), sigma2)


def test_likelihood_gap_is_the_distance_of_the_two_contrasts():
    m = step_model()
    x = simulate_tvar(m, 256, seed=7)
    res = likelihood_gap(x, m)
    assert res["whittle"] == whittle_contrast(x, m)
    assert res["conditional"] == conditional_likelihood(x, m)
    assert res["gap"] == abs(0.5 * (res["conditional"] - math.log(2 * math.pi)) - res["whittle"])


def test_likelihood_equivalence_gap_shrinks_with_n():
    m = step_model()
    gaps = {n: likelihood_gap(simulate_tvar(m, n, seed=7), m)["gap"] for n in (128, 1024)}
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
