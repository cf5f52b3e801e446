import functools
import inspect
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import locstat.estimator as estimator
import locstat.likelihood as likelihood
from locstat.curves import ConstantCurve, FourierCurve, MonotoneStepCurve, SampledCurve
from locstat.estimator import (
    DISTANCE_CELLS,
    FOURIER_MARGIN,
    DegenerateDataError,
    default_eps,
    default_knots,
    curve_inverse_l2_distance,
    fit_fourier_tvar,
    fit_monotone_tvar,
    inverse_l2_distance,
)
from locstat.isotonic import sieve_pava
from locstat.likelihood import SpectrumField, _conditional, _inverse_distance_sq, likelihood_gap, whittle_contrast
from locstat.harness import default_rate_model
from locstat.process import STABILITY_GRID, TimeSeries, TvARModel, simulate_tvar


def step_model():
    return TvARModel([ConstantCurve(0.5)], SampledCurve([1.0, 2.0]))


def wavy_model():
    return TvARModel([FourierCurve(0.0, a=[0.5])], ConstantCurve(1.0))


def near_unit_model():
    # alpha reaches -0.95 at u = 1/2, so short series fit past the unit bound
    return TvARModel([FourierCurve(-0.6, [0.35], [0.0])], ConstantCurve(1.0))


def test_default_knots_and_eps_frozen():
    assert default_knots(256) == 3
    assert default_knots(4096) == 4
    assert default_eps(256) == pytest.approx(math.log(256) ** -0.2)
    with pytest.raises(ValueError):
        default_knots(1)
    with pytest.raises(ValueError):
        default_eps(2)


def test_fit_keywords_are_checked_before_the_series():
    x = simulate_tvar(step_model(), 256, seed=7)
    fit_monotone_tvar(x, p=0, k_n=1, eps=0.5)
    with pytest.raises(ValueError, match="^p must be at least 0"):
        fit_monotone_tvar(x, p=-1)
    with pytest.raises(ValueError, match="^eps must lie in"):
        fit_monotone_tvar(x, eps=1.0)
    with pytest.raises(ValueError, match="^k_n must be at least 1"):
        fit_monotone_tvar(x, k_n=0)
    with pytest.raises(ValueError, match="^max_iter must be at least 1"):
        fit_monotone_tvar(x, max_iter=0)
    with pytest.raises(ValueError, match="^rel_tol must be positive$"):
        fit_monotone_tvar(x, rel_tol=0.0)
    for bad in ({"k_n": "abc"}, {"k_n": 1.5}, {"eps": "abc"}, {"eps": [0.5]}, {"p": None}, {"max_iter": {}}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            fit_monotone_tvar(x, **bad)
    # a bad keyword is named before the series is read, in the order p,
    # max_iter, rel_tol, eps, k_n
    with pytest.raises(ValueError, match="finite"):
        fit_monotone_tvar(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="^eps must lie in"):
        fit_monotone_tvar(np.array([1.0, np.nan]), eps=2.0)
    with pytest.raises(ValueError, match="^max_iter must be"):
        fit_monotone_tvar(x, k_n=0, eps=2.0, rel_tol=-1.0, max_iter=0)


def test_fit_resolves_and_records_its_settings():
    x = simulate_tvar(step_model(), 256, seed=7)
    res = fit_monotone_tvar(x, p=1, k_n=4.0, eps="0.25")
    assert (res.k_n, res.eps) == (4, 0.25)
    assert (type(res.k_n), type(res.eps)) == (int, float)
    res = fit_monotone_tvar(x, p=1)
    assert (res.k_n, res.eps) == (3, math.log(256) ** -0.2) == (default_knots(256), default_eps(256))
    res = fit_monotone_tvar(x, p=1, k_n=7, eps=0.3)
    assert (res.k_n, res.eps) == (7, 0.3)


def wls(x, sigma2, p):
    """The alpha step of fit_monotone_tvar: _wls on the lag matrix of x,
    observation t weighted by 1/sigma2(t/n)."""
    n = len(x)
    return estimator._wls(estimator._lag_matrix(x, p), x[p:], 1.0 / sigma2.values(np.arange(p + 1, n + 1) / n))


def test_wls_alternating_series_frozen():
    # x_t = -x_{t-1} exactly, so the order-1 coefficient is exactly 1
    coef = wls(np.array([1.0, -1.0, 1.0, -1.0]), ConstantCurve(1.0), 1)
    assert coef[0] == pytest.approx(1.0, abs=1e-14)


def test_wls_singular_series_is_degenerate():
    with pytest.raises(DegenerateDataError):
        wls(np.zeros(50), ConstantCurve(1.0), 1)


def test_wls_residuals_orthogonal_to_weighted_regressors():
    m = step_model()
    for seed in range(5):
        x = simulate_tvar(m, 300, seed=seed).values
        n = len(x)
        p = 2
        sigma2 = SampledCurve([1.0, 2.0])
        coef = wls(x, sigma2, p)
        w = 1.0 / sigma2.values(np.arange(p + 1, n + 1) / n)
        resid = x[p:] + coef[0] * x[p - 1 : n - 1] + coef[1] * x[p - 2 : n - 2]
        scale = float(np.sum(np.abs(x)))
        for j in range(1, p + 1):
            inner = float(np.dot(w * resid, x[p - j : n - j]))
            assert abs(inner) <= 1e-8 * scale


def test_monotone_fit_descent_with_loose_bounds():
    # eps small enough that the variance bounds never bind: every half step
    # is an exact block minimizer, so the trace decreases to round-off
    m = step_model()
    x = simulate_tvar(m, 512, seed=3)
    res = fit_monotone_tvar(x, p=1, eps=0.01)
    full = [res.objective_trace[0]]
    for a, b in zip(res.wls_trace, res.pava_trace):
        full.extend([a, b])
    for prev, nxt in zip(full, full[1:]):
        assert nxt <= prev + 1e-12 * max(1.0, abs(prev))


def test_monotone_fit_descent_with_binding_bounds():
    m = step_model()
    x = simulate_tvar(m, 512, seed=4)
    res = fit_monotone_tvar(x, p=1, eps=0.8)  # bounds [0.64, 1.5625] bind
    full = [res.objective_trace[0]]
    for a, b in zip(res.wls_trace, res.pava_trace):
        full.extend([a, b])
    for prev, nxt in zip(full, full[1:]):
        assert nxt <= prev + 1e-8 * max(1.0, abs(prev))


def test_monotone_fit_fixed_point_rerun():
    m = step_model()
    x = simulate_tvar(m, 512, seed=5)
    res = fit_monotone_tvar(x, p=1)
    rel_tol = inspect.signature(fit_monotone_tvar).parameters["rel_tol"].default
    # one more iteration from the fitted variance moves neither the objective nor alpha;
    # the fit scores its candidates without validating them, and so does this rerun
    n = len(x.values)
    alpha = wls(x.values, res.sigma2_hat, 1)
    resid = x.values[1:] + alpha[0] * x.values[:-1]
    sigma = sieve_pava(resid ** 2, n, res.k_n, res.eps)
    again = _conditional(resid ** 2, sigma.values(np.arange(2, n + 1) / n), n)
    # the fitted alpha is stable, so the public contrast gives the same score
    assert again == likelihood_gap(x, TvARModel(alpha, sigma))["conditional"]
    assert abs(again - res.objective) <= rel_tol * max(1.0, abs(res.objective))
    assert abs(alpha[0] - res.alpha_hat[0]) < 1e-3


def test_monotone_fit_forms_each_quantity_once(monkeypatch):
    # per fit one series validation; per sieve step (the first and one per
    # iteration) one residual pass and one evaluation of the variance on the
    # design points, which the next alpha step takes as its weights
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    residuals = counting("residuals", likelihood._residuals)
    for module in (estimator, likelihood):
        monkeypatch.setattr(module, "_residuals", residuals)
    monkeypatch.setattr(MonotoneStepCurve, "values", counting("values", MonotoneStepCurve.values))
    monkeypatch.setattr(TimeSeries, "__init__", counting("series", TimeSeries.__init__))
    x = simulate_tvar(default_rate_model(), 2048, seed=3)
    counts.clear()
    res = fit_monotone_tvar(x, p=1)
    assert res.iterations == 3
    assert counts == {"residuals": 4, "values": 4, "series": 1}


def test_monotone_fit_recovers_step_model():
    m = step_model()
    x = simulate_tvar(m, 2048, seed=6)
    res = fit_monotone_tvar(x, p=1)
    assert res.converged
    assert res.alpha_stable
    assert abs(res.alpha_hat[0] - 0.5) < 0.1
    vals = res.sigma2_hat.knot_values
    assert vals[0] < 1.5 < vals[-1]  # variance step is visible


@pytest.mark.parametrize("scale, at_lower, at_upper", [(1.0, 0, 0), (10.0, 0, 4), (0.1, 4, 0)])
def test_monotone_fit_counts_knots_on_the_bounds(scale, at_lower, at_upper):
    # the sieve's bounds do not scale with the data, so rescaled series clip
    x = simulate_tvar(step_model(), 2048, seed=3).values * scale
    res = fit_monotone_tvar(x, p=1)
    knots = res.sigma2_hat.knot_values
    assert res.sigma2_hat.knots == 4
    assert (res.knots_at_lower, res.knots_at_upper) == (at_lower, at_upper)
    assert np.count_nonzero(knots == res.eps**2) == at_lower
    assert np.count_nonzero(knots == 1.0 / res.eps**2) == at_upper


def test_monotone_fit_near_profile_minimum():
    m = step_model()
    x = simulate_tvar(m, 512, seed=3)
    res = fit_monotone_tvar(x, p=1)
    n = len(x.values)
    a0 = float(res.alpha_hat[0])
    for da in (-0.05, -0.01, 0.01, 0.05):
        r = x.values[1:] + (a0 + da) * x.values[:-1]
        s = sieve_pava(r**2, n, res.k_n, res.eps)
        perturbed = _conditional(r**2, s.values(np.arange(2, n + 1) / n), n)
        assert perturbed >= res.objective - 1e-6


def test_monotone_fit_order_zero_is_variance_only():
    x = simulate_tvar(step_model(), 256, seed=7)
    res = fit_monotone_tvar(x, p=0, k_n=3, eps=0.1)
    assert res.alpha_hat.size == 0
    direct = sieve_pava(x.values**2, 256, 3, 0.1)
    np.testing.assert_array_equal(res.sigma2_hat.knot_values, direct.knot_values)


def test_monotone_fit_deterministic():
    x = simulate_tvar(step_model(), 300, seed=8)
    r1 = fit_monotone_tvar(x, p=1)
    r2 = fit_monotone_tvar(x, p=1)
    np.testing.assert_array_equal(r1.alpha_hat, r2.alpha_hat)
    np.testing.assert_array_equal(r1.sigma2_hat.knot_values, r2.sigma2_hat.knot_values)
    assert r1.objective_trace == r2.objective_trace


def test_monotone_fit_short_series_raises():
    with pytest.raises(ValueError):
        fit_monotone_tvar(np.array([1.0]), p=1)


def test_fourier_objective_is_whittle_contrast_of_fit():
    x = simulate_tvar(wavy_model(), 1024, seed=1)
    for k_n in (0, 1):
        res = fit_fourier_tvar(x, k_n=k_n)
        model_hat = TvARModel([res.alpha_curve], ConstantCurve(res.sigma2))
        w = whittle_contrast(x, SpectrumField.from_model(model_hat))
        assert res.objective == pytest.approx(w, abs=1e-12)


def test_fourier_constant_fit_recovers_ar1():
    m = TvARModel([ConstantCurve(0.5)], ConstantCurve(1.0))
    for seed in range(3):
        x = simulate_tvar(m, 1024, seed=10 + seed)
        res = fit_fourier_tvar(x, k_n=0)
        assert res.converged
        assert abs(res.alpha_curve.a0 - 0.5) < 0.1
        assert abs(res.sigma2 - 1.0) < 0.2
        assert res.alpha_curve.a.size == 0 or np.all(res.alpha_curve.a == 0)


def test_fourier_fit_recovers_wavy_coefficient():
    m = wavy_model()
    for seed in range(3):
        x = simulate_tvar(m, 1024, seed=seed)
        res = fit_fourier_tvar(x, k_n=1)
        assert res.converged
        assert abs(res.alpha_curve.a0) < 0.15
        assert abs(float(res.alpha_curve.a[0]) - 0.5) < 0.15
        assert abs(float(res.alpha_curve.b[0])) < 0.15


def test_fourier_fit_beats_constant_candidate_on_wavy_data():
    x = simulate_tvar(wavy_model(), 1024, seed=2)
    res1 = fit_fourier_tvar(x, k_n=1)
    res0 = fit_fourier_tvar(x, k_n=0)
    assert res1.objective < res0.objective


def test_fourier_fit_validation():
    with pytest.raises(DegenerateDataError):
        fit_fourier_tvar(np.zeros(64), k_n=0)
    with pytest.raises(ValueError):
        fit_fourier_tvar(np.ones(64), k_n=-1)
    with pytest.raises(ValueError):
        fit_fourier_tvar(np.ones(10), k_n=1)  # too short


def test_fourier_fit_deterministic():
    x = simulate_tvar(wavy_model(), 512, seed=9)
    r1 = fit_fourier_tvar(x, k_n=1)
    r2 = fit_fourier_tvar(x, k_n=1)
    assert r1.alpha_curve.a0 == r2.alpha_curve.a0
    np.testing.assert_array_equal(r1.alpha_curve.a, r2.alpha_curve.a)
    assert r1.sigma2 == r2.sigma2
    assert r1.objective == r2.objective


def fourier_theta(curve):
    """Coefficients (a_0, a_1, b_1, ..., a_k, b_k) of a FourierCurve."""
    return np.concatenate([[curve.a0], np.column_stack([curve.a, curve.b]).ravel()])


def fourier_basis(u, k_n):
    """Basis columns evaluated through FourierCurve, one unit coefficient each."""
    return np.column_stack([FourierCurve(e[0], e[1::2], e[2::2]).values(u) for e in np.eye(2 * k_n + 1)])


def fourier_quadratic(x, k_n):
    """H and g of n qbar(theta) = sum x_t^2 + theta' H theta + 2 g' theta."""
    n = len(x)
    basis = fourier_basis(np.arange(1, n + 1) / n, k_n)
    return basis.T @ (x[:, None] ** 2 * basis), basis.T @ np.append(x[:-1] * x[1:], 0.0)


def fourier_room(k_n):
    """Bound on |alpha| at the check nodes that keeps sup |alpha| <= 1 - FOURIER_MARGIN."""
    return (1.0 - FOURIER_MARGIN) * (1.0 - 0.5 * (np.pi * k_n / STABILITY_GRID) ** 2)


def profiled_whittle(x, theta, eps):
    """Whittle contrast of the curve theta, minimized over s^2 in [eps^2, 1/eps^2]."""
    curve = FourierCurve(theta[0], theta[1::2], theta[2::2])
    unit = whittle_contrast(x, SpectrumField.from_model(TvARModel([curve], ConstantCurve(1.0))))
    qbar = 2.0 * unit + math.log(2 * math.pi)  # the unit-variance contrast is qbar/2 - log(2 pi)/2
    s2 = min(max(qbar, eps**2), eps**-2)
    return 0.5 * math.log(s2 / (2 * math.pi)) + qbar / (2 * s2)


def test_fourier_interior_fit_zeroes_gradient():
    for seed in range(3):
        x = simulate_tvar(wavy_model(), 1024, seed=seed).values
        for k_n in (1, 3):
            res = fit_fourier_tvar(x, k_n=k_n)
            assert not res.constrained and res.converged
            hess, grad = fourier_quadratic(x, k_n)
            gap = hess @ fourier_theta(res.alpha_curve) + grad
            assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(grad)


def test_fourier_constant_fit_is_lag_one_regression():
    x = simulate_tvar(step_model(), 777, seed=4).values
    res = fit_fourier_tvar(x, k_n=0)
    expected = -np.sum(x[:-1] * x[1:]) / np.sum(x * x)
    assert res.alpha_curve.a0 == pytest.approx(expected, rel=1e-14, abs=0)


def test_fourier_near_unit_fit_is_constrained_and_satisfies_kkt():
    x = simulate_tvar(near_unit_model(), 256, seed=0).values
    res = fit_fourier_tvar(x, k_n=3)
    assert res.constrained and res.converged
    TvARModel([res.alpha_curve], ConstantCurve(res.sigma2), validate=True)
    theta = fourier_theta(res.alpha_curve)
    check = fourier_basis(np.arange(1, STABILITY_GRID + 1) / STABILITY_GRID, 3)
    values = check @ theta
    assert np.max(np.abs(values)) < 1.0
    active = np.abs(values) >= fourier_room(3) - 1e-8
    assert 1 <= np.count_nonzero(active) <= 2
    # stationarity: -gradient = sum over active nodes of mu_i sign_i c_i, mu_i >= 0;
    # inactive nodes carry no multiplier.  The active-set QP solves its KKT
    # system directly, so this holds to rounding.
    hess, grad = fourier_quadratic(x, 3)
    normals = (np.sign(values[active])[:, None] * check[active]).T
    gradient = hess @ theta + grad
    mu = np.linalg.lstsq(normals, -gradient, rcond=None)[0]
    assert np.all(mu > 0)
    assert np.linalg.norm(normals @ mu + gradient) <= 1e-12 * np.linalg.norm(grad)


def test_fourier_constrained_fit_matches_slsqp_oracle():
    # SLSQP on the same QP, min 1/2 theta' H theta + g' theta with |check theta|
    # <= room from theta = 0.  Its solution can sit outside the constraints (by
    # up to 9.3e-13 on near-unit fits), so it is pulled back towards theta = 0
    # before the objectives are compared
    from scipy.optimize import minimize

    constrained = 0
    for n, k_n in ((256, 3), (256, 1), (128, 5)):
        check = fourier_basis(np.arange(1, STABILITY_GRID + 1) / STABILITY_GRID, k_n)
        room = fourier_room(k_n)
        for seed in range(10):
            x = simulate_tvar(near_unit_model(), n, seed=seed).values
            res = fit_fourier_tvar(x, k_n=k_n)
            if not res.constrained:
                continue
            constrained += 1
            assert res.converged
            hess, grad = fourier_quadratic(x, k_n)
            objective = lambda th: 0.5 * th @ hess @ th + grad @ th  # noqa: E731
            oracle = minimize(
                objective,
                np.zeros(hess.shape[0]),
                jac=lambda th: hess @ th + grad,
                method="SLSQP",
                constraints=[
                    {"type": "ineq", "fun": lambda th: room - check @ th, "jac": lambda th: -check},
                    {"type": "ineq", "fun": lambda th: room + check @ th, "jac": lambda th: check},
                ],
                options={"ftol": 1e-15},
            ).x
            oracle *= min(1.0, room / np.max(np.abs(check @ oracle)))
            theta = fourier_theta(res.alpha_curve)
            assert objective(theta) - objective(oracle) <= 1e-14 * abs(objective(oracle))
            assert np.max(np.abs(check @ theta)) <= room + 1e-15
    assert constrained >= 5


def test_fourier_constrained_fit_stays_below_one_between_check_nodes():
    # a curve held to 1 - FOURIER_MARGIN on the nodes alone exceeds 1 between
    # them by up to 3.3e-5 on these fits
    fine = np.arange(1, 2**16 + 1) / 2**16
    constrained = 0
    for n, k_n in ((256, 3), (256, 1), (128, 5)):
        for seed in range(10):
            res = fit_fourier_tvar(simulate_tvar(near_unit_model(), n, seed=seed).values, k_n=k_n)
            constrained += res.constrained
            assert np.max(np.abs(res.alpha_curve.values(fine))) <= 1.0 - FOURIER_MARGIN
    assert constrained >= 5


def test_fourier_fit_rejects_order_beyond_the_check_nodes():
    x = simulate_tvar(wavy_model(), 8 * 232, seed=0).values
    with pytest.raises(ValueError, match="check nodes"):
        fit_fourier_tvar(x, k_n=231)


FOURIER_CASES = ((wavy_model, 512, 0, 1), (wavy_model, 512, 1, 3), (near_unit_model, 256, 0, 3))


@functools.lru_cache(maxsize=None)
def fourier_case(index):
    model, n, seed, k_n = FOURIER_CASES[index]
    x = simulate_tvar(model(), n, seed=seed).values
    return x, fit_fourier_tvar(x, k_n=k_n), k_n


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, len(FOURIER_CASES) - 1),
    raw=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
    step=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
)
def test_fourier_fit_no_feasible_perturbation_lowers_objective(index, raw, step):
    x, res, k_n = fourier_case(index)
    theta = fourier_theta(res.alpha_curve)
    check = fourier_basis(np.arange(1, STABILITY_GRID + 1) / STABILITY_GRID, k_n)
    trial = theta + step * np.array(raw[: theta.size])
    # pulled towards theta = 0 into the feasible set |check theta| <= room
    trial *= min(1.0, fourier_room(k_n) / np.max(np.abs(check @ trial)))
    assert profiled_whittle(x, trial, default_eps(len(x))) >= res.objective - 1e-12


def test_fourier_fit_rejects_overflowing_series():
    x = simulate_tvar(wavy_model(), 256, seed=0).values * 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateDataError):
        fit_fourier_tvar(x, k_n=1)


def test_inverse_l2_distance_frozen_constants():
    # white noise of variance 1 and 2 has the constant spectra 1/(2 pi) and
    # 1/pi: |1/g - 1/f| = pi everywhere, so the distance is pi sqrt(2 pi)
    f, g = TvARModel((), 1.0), TvARModel((), 2.0)
    assert inverse_l2_distance(g, f) == pytest.approx(np.pi * np.sqrt(2 * np.pi), rel=1e-12)
    assert inverse_l2_distance(f, f) == 0.0


def test_inverse_l2_distance_mesh_refinement_stable():
    f = SpectrumField.from_model(step_model())
    g = SpectrumField.from_coefficients(np.array([0.3]), 1.4)
    d1 = inverse_l2_distance(g, f)
    d2 = np.sqrt(_inverse_distance_sq(g, f, 2 * DISTANCE_CELLS))
    assert d1 == pytest.approx(d2, rel=1e-6)


def test_inverse_l2_distance_rejects_nonpositive():
    f = SpectrumField.from_model(step_model())
    bad = TvARModel((), SampledCurve([1.0, -1.0]), validate=False)
    with pytest.raises(ValueError, match="strictly positive"):
        inverse_l2_distance(bad, f)


def test_curve_inverse_l2_distance_takes_a_number_as_its_constant_curve():
    for value in (float("nan"), None, "abc"):
        with pytest.raises(ValueError, match="curve value"):
            curve_inverse_l2_distance(value, 1.0)
        with pytest.raises(ValueError, match="curve value"):
            curve_inverse_l2_distance(ConstantCurve(1.0), value)
    step = SampledCurve([1.0, 3.0])
    assert curve_inverse_l2_distance(2.0, step) == curve_inverse_l2_distance(ConstantCurve(2.0), step)


def test_curve_inverse_l2_distance_frozen():
    assert curve_inverse_l2_distance(ConstantCurve(1.0), ConstantCurve(2.0)) == pytest.approx(
        0.5 * np.sqrt(2 * np.pi), rel=1e-12
    )
    assert curve_inverse_l2_distance(1.0, 2.0) == pytest.approx(0.5 * np.sqrt(2 * np.pi), rel=1e-12)
    with pytest.raises(ValueError):
        curve_inverse_l2_distance(ConstantCurve(0.0), 1.0)
