import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _mesh
from locstat.curves import ConstantCurve, Curve, FourierCurve, MonotoneStepCurve, SampledCurve
from locstat.likelihood import (
    SpectrumField,
    _conditional,
    _contrasts,
    _log_integral,
    _residuals,
    divergence_sandwich,
    kl_contrast,
    likelihood_gap,
    whittle_contrast,
)
from locstat.process import TvARModel, _as_model, check_stability, simulate_tvar, spectral_density
from locstat.spectral import FrequencyGrid, ar_inverse_weight, spectral_functional


class ExpCurve(Curve):
    # sigma^2(u) = e^u, a variance that varies smoothly in time
    def values(self, u):
        return np.exp(np.asarray(u, dtype=float))


def step_model():
    return TvARModel([ConstantCurve(0.5)], SampledCurve([1.0, 2.0]))


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
    assert g.describe() == TvARModel([ConstantCurve(a) for a in alpha], sigma2).describe()


@pytest.mark.parametrize("spectrum", [1.0, "ar1", lambda u, lam: np.ones(np.broadcast(u, lam).shape)])
@pytest.mark.parametrize("construct", [SpectrumField.from_model, _as_model])
def test_only_a_model_is_a_spectrum(construct, spectrum):
    with pytest.raises(ValueError, match="expected a TvARModel"):
        construct(spectrum)


def test_whittle_exact_path_matches_quadrature():
    m = step_model()
    x = simulate_tvar(m, 64, seed=3)
    # white noise of variance e^u has the flat spectrum e^u / (2 pi): the mesh
    # sum of its log over frequencies checks the Kolmogorov path of a
    # time-varying variance
    for g in (SpectrumField.from_model(m), TvARModel((), ExpCurve())):
        exact = whittle_contrast(x, g)
        quad = _mesh.whittle_contrast(x, g, FrequencyGrid(8192))
        assert quad == pytest.approx(exact, abs=1e-10)


def test_whittle_white_noise_closed_form():
    x = simulate_tvar(step_model(), 100, seed=4)
    val = whittle_contrast(x, SpectrumField.from_model(TvARModel((), 1.0)))
    closed = 0.5 * math.log(1 / (2 * math.pi)) + 0.5 * np.mean(x.values**2)
    assert val == pytest.approx(closed, abs=1e-12)


def test_whittle_stationary_candidate_is_classical_whittle():
    x = simulate_tvar(step_model(), 128, seed=5)
    g = SpectrumField.from_coefficients(np.array([0.3]), 1.2)
    grid = FrequencyGrid(4096)
    per = _mesh.periodogram(x, grid)
    gv = spectral_density(g, np.full(grid.size, 0.5), grid.nodes)
    classical = np.sum((np.log(gv) + per / gv) * grid.weight) / (4 * np.pi)
    assert whittle_contrast(x, g) == pytest.approx(classical, abs=1e-12)


def test_whittle_rejects_nonpositive_candidate():
    x = simulate_tvar(TvARModel((), 1.0), 32, seed=0)
    bad = TvARModel((), SampledCurve([1.0, -1.0]), validate=False)
    with pytest.raises(ValueError, match="strictly positive"):
        whittle_contrast(x, bad)


def _fit_conditional(x, alpha, sigma2):
    # the conditional contrast as fit_monotone_tvar scores its candidates: a
    # constant coefficient row, stable or not, and a variance curve
    n, p = len(x), len(alpha)
    e2 = _residuals(x, np.asarray(alpha, dtype=float)) ** 2
    return _conditional(e2, sigma2.values(np.arange(p + 1, n + 1) / n), n)


def test_conditional_likelihood_frozen_small_case():
    # x = (1, -1), alpha = 1, sigma2 = 1: single residual x_2 + x_1 = 0,
    # so the average of log sigma2 + e^2/sigma2 over t=2 is 0... divided by n;
    # alpha = 1 is not stable, so only the fit's core scores it
    assert _fit_conditional(np.array([1.0, -1.0]), [1.0], ConstantCurve(1.0)) == 0.0
    # the same residual from the stable alpha = 0.5, through the public contrast
    g = TvARModel([0.5], 1.0)
    assert likelihood_gap(np.array([2.0, -1.0]), g)["conditional"] == 0.0


def test_conditional_likelihood_white_noise_closed_form():
    x = np.array([1.0, 2.0, -1.0])
    val = likelihood_gap(x, TvARModel((), 2.0))["conditional"]
    expected = (3 * math.log(2.0) + np.sum(x**2) / 2.0) / 3
    assert val == pytest.approx(expected, rel=1e-14)


def test_conditional_likelihood_accepts_curve_variance():
    x = simulate_tvar(step_model(), 50, seed=6)
    a = likelihood_gap(x, TvARModel([0.5], SampledCurve([1.0, 2.0])))["conditional"]
    b = likelihood_gap(x, TvARModel([0.5], SampledCurve([2.0, 4.0])))["conditional"]
    assert a != b


def test_conditional_likelihood_errors():
    with pytest.raises(ValueError, match="need more than p=1"):
        likelihood_gap(np.array([1.0]), TvARModel([0.5], 1.0))
    # a variance that is not positive is refused by the Whittle part, which is scored first
    negative = TvARModel([0.5], -1.0, validate=False)
    with pytest.raises(ValueError, match="^spectra must be strictly positive on the mesh$"):
        likelihood_gap(np.array([1.0, 2.0]), negative)
    with pytest.raises(ValueError, match="expected a TvARModel"):
        likelihood_gap(np.array([1.0, 2.0]), 1.0)
    # the fit's core keeps its own refusal of a variance that is not positive
    with pytest.raises(ValueError, match="^sigma2 must be strictly positive at the design points$"):
        _fit_conditional(np.array([1.0, 2.0]), [0.5], ConstantCurve(-1.0))


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
    model = TvARModel(alpha, SampledCurve([1.0, 2.0, 1.5]))
    x = simulate_tvar(model, 300, seed=4).values
    assert likelihood_gap(x, model)["conditional"] == pytest.approx(_per_t_conditional(x, model), rel=1e-12)


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
    expected = _parent_conditional(x, np.array(alpha), sigma2)
    assert _fit_conditional(x, alpha, sigma2) == expected
    # likelihood_gap validates its candidate, so it scores the stable ones
    if check_stability(alpha):
        assert likelihood_gap(x, TvARModel(alpha, sigma2))["conditional"] == expected


def test_likelihood_gap_is_the_distance_of_the_two_contrasts():
    m = step_model()
    x = simulate_tvar(m, 256, seed=7)
    res = likelihood_gap(x, m)
    assert res["whittle"] == whittle_contrast(x, m)
    assert res["conditional"] == _parent_conditional(x.values, np.array([0.5]), m.sigma2)
    assert res["gap"] == abs(0.5 * (res["conditional"] - math.log(2 * math.pi)) - res["whittle"])


def _batch_candidate(kind, p, rng):
    # coefficient curves bounded by 0.24, so sum_j |alpha_j(u)| < 1 keeps every
    # row stable, and a variance of the same kind bounded away from 0
    if kind == "step":
        return TvARModel(
            rng.uniform(-0.24, 0.24, p), MonotoneStepCurve(np.sort(rng.uniform(0.5, 2.0, 4)), eps=0.5)
        )
    if kind == "sampled":
        alpha = [SampledCurve(rng.uniform(-0.24, 0.24, 3)) for _ in range(p)]
        return TvARModel(alpha, SampledCurve(rng.uniform(0.5, 2.0, 5)))
    alpha = [FourierCurve(*rng.uniform(-0.08, 0.08, 3)) for _ in range(p)]
    return TvARModel(alpha, FourierCurve(1.5, *rng.uniform(-0.5, 0.5, 2)))


def _parent_whittle(x, model):
    # the single-series formula this contrast had before it took rows
    n = len(x)
    log_part = np.mean(_log_integral(model, np.arange(1, n + 1) / n))
    return float((log_part + spectral_functional(x, ar_inverse_weight(model))) / (4 * np.pi))


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["step", "sampled", "fourier"]),
    p=st.integers(0, 3),
    rows=st.integers(1, 20),
    extra=st.integers(1, 2000),
    seed=st.integers(0, 2**16),
)
def test_contrasts_rows_are_the_single_series_values_bit_for_bit(kind, p, rows, extra, seed):
    rng = np.random.default_rng(seed)
    model = _batch_candidate(kind, p, rng)
    X = rng.standard_normal((rows, p + extra))
    batch = _contrasts(X, model)
    assert all(values.shape == (rows,) for values in batch.values())
    for r, x in enumerate(X):
        single = likelihood_gap(x, model)
        assert single == {key: float(values[r]) for key, values in batch.items()}
        assert single["whittle"] == whittle_contrast(x, model) == _parent_whittle(x, model)
        if kind == "step":  # constant coefficients: the scalar formula
            alpha = model.alpha_matrix(np.array([0.5]))[0]
            assert single["conditional"] == _parent_conditional(x, alpha, model.sigma2)


def test_contrasts_keep_the_single_series_errors():
    model = TvARModel([0.5, 0.1], 1.0)
    with pytest.raises(ValueError, match=r"^need more than p=2 observations$"):
        _contrasts(np.ones((3, 2)), model)
    # a variance that is not positive: the Whittle part is checked first, as
    # likelihood_gap checks it
    negative = TvARModel([0.5], SampledCurve([1.0, -1.0]), validate=False)
    with pytest.raises(ValueError, match=r"^spectra must be strictly positive on the mesh$"):
        _contrasts(np.ones((3, 8)), negative)
    with pytest.raises(ValueError, match=r"^spectra must be strictly positive on the mesh$"):
        likelihood_gap(np.ones(8), negative)
    with pytest.raises(ValueError, match=r"^sigma2 must be strictly positive at the design points$"):
        _fit_conditional(np.ones(8), [0.5], negative.sigma2)
    # the Whittle contrast alone takes a series of p observations or fewer
    assert math.isfinite(whittle_contrast(np.ones(2), model))


def test_likelihood_equivalence_gap_shrinks_with_n():
    m = step_model()
    gaps = {n: likelihood_gap(simulate_tvar(m, n, seed=7), m)["gap"] for n in (128, 1024)}
    assert gaps[1024] < gaps[128] / 2


def test_kl_divergence_zero_iff_equal():
    # D(g, f) as the sandwich's mesh value and as the excess population contrast
    f = SpectrumField.from_model(step_model())
    assert divergence_sandwich(f, f)["divergence"] == pytest.approx(0.0, abs=1e-14)
    g = SpectrumField.from_coefficients(np.array([0.3]), 1.5)
    assert divergence_sandwich(g, f)["divergence"] > 1e-3
    assert kl_contrast(g, f) - kl_contrast(f, f) > 1e-3


def test_kl_divergence_equals_contrast_difference():
    # the variance jumps at u = 1/2, a cell edge of both u-grids, and the
    # integrand is analytic in lam, so the sandwich's mesh value is the exact
    # contrast difference to rounding
    f = SpectrumField.from_model(step_model())
    g = SpectrumField.from_coefficients(np.array([0.2]), 1.4)
    direct = divergence_sandwich(g, f)["divergence"]
    via_contrast = kl_contrast(g, f) - kl_contrast(f, f)
    assert direct == pytest.approx(via_contrast, rel=1e-12)


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


def test_ar_log_spectrum_integral_vanishes_for_stable_models():
    # Szego/Kolmogorov: int log |1 + sum alpha_j e^{i lam j}|^2 dlam = 0, read
    # off the mesh as -int log g for the spectrum g = 1/|A|^2 (sigma^2 = 2 pi)
    def integral(alpha):
        g = TvARModel(np.array(alpha, dtype=float), 2 * np.pi)
        return -float(_mesh.log_integral(g, np.array([0.5]), FrequencyGrid(4096))[0])

    assert integral([0.5]) == pytest.approx(0.0, abs=1e-10)
    assert integral([1.5, 0.56]) == pytest.approx(0.0, abs=1e-10)
    assert integral([]) == pytest.approx(0.0, abs=1e-14)


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
    m = TvARModel([FourierCurve(0.0, a=[0.6])], ConstantCurve(1.0))
    g_var = SpectrumField.from_model(m)
    g_const = SpectrumField.from_coefficients(np.array([0.0]), 1.0)
    wins = 0
    for seed in range(10):
        x = simulate_tvar(m, 512, seed=seed)
        if whittle_contrast(x, g_var) < whittle_contrast(x, g_const):
            wins += 1
    assert wins >= 9
