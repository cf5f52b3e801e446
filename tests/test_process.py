import csv
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import _mesh
from locstat.curves import ConstantCurve, Curve, FourierCurve, SampledCurve
from locstat.espec import COVARIANCE_CELLS, limit_covariance
from locstat.estimator import DISTANCE_CELLS, inverse_l2_distance
from locstat.likelihood import SANDWICH_CELLS, divergence_sandwich, kl_contrast
import locstat.process as process
from locstat.process import (
    SpectrumField,
    TimeSeries,
    TvARModel,
    ar_autocov,
    check_stability,
    coeff_autocorr,
    model_from_json,
    simulate_tvar,
    simulate_tvar_batch,
    spectral_density,
    transfer_abs2,
    tv_covariance,
    white_noise_model,
)
from locstat.spectral import TIME_CELLS, FrequencyGrid, ar_inverse_weight, constant_weight, spectral_functional_limit


def test_check_stability_known_polynomials():
    # 1 + 1.5 z + 0.56 z^2 has roots -1.25 and -25/14, both outside the unit circle
    assert check_stability(np.array([1.5, 0.56]))
    # order 1: root is -1/a, stable iff |a| < 1
    assert check_stability(np.array([0.99]))
    assert not check_stability(np.array([1.0]))
    assert not check_stability(np.array([-1.0]))
    assert not check_stability(np.array([1.2]))
    # empty / zero coefficients are trivially stable
    assert check_stability(np.array([]))
    assert check_stability(np.array([0.0, 0.0]))


def test_check_stability_margin():
    # root at -1/0.9 = -1.111..., inside the 0.2 margin
    assert check_stability(np.array([0.9]), delta=0.0)
    assert not check_stability(np.array([0.9]), delta=0.2)


def test_check_stability_converts_the_margin():
    # a nan margin must not call the stable [0.5] unstable; a numeric string converts
    for delta in (float("nan"), "abc", None, -0.1):
        with pytest.raises(ValueError, match="delta"):
            check_stability([0.5], delta)
    assert check_stability([0.5], "0.1") is check_stability([0.5], 0.1) is True


def test_model_validation_rejects_unstable_region():
    # alpha(u) = 1.2 cos(2 pi u) exceeds 1 in modulus near u = 0 and 1
    with pytest.raises(ValueError):
        TvARModel(1, [FourierCurve(0.0, a=[1.2])], ConstantCurve(1.0))


def roots_oracle(coeffs, delta=0.0):
    """(whether 1 + sum_j coeffs[j-1] z^j has no root in |z| <= 1 + delta,
    the distance of its nearest root from that circle), by np.roots.

    Trailing coefficients below 1e-12 in modulus are dropped first: np.roots
    divides by the leading one, which blows its companion matrix up (it put
    one of the roots of 1 + 0.5 z^2 + 2e-273 z^3, near +-1.41i, inside the
    unit circle), while dropping it moves the other roots by about as much
    as it is and only adds a root far outside."""
    coeffs = np.asarray(coeffs, dtype=float)
    nonzero = np.flatnonzero(np.abs(coeffs) >= 1e-12)
    if not nonzero.size:
        return True, np.inf
    nearest = np.min(np.abs(np.roots(np.concatenate([coeffs[nonzero[-1] :: -1], [1.0]]))))
    return bool(nearest > 1.0 + delta), abs(nearest - (1.0 + delta))


@st.composite
def ar_coefficients(draw):
    """AR coefficients of order 1-6 with up to p - 1 trailing zeros: either
    drawn directly, or built from roots of modulus 0.5-3 so that stable and
    unstable polynomials of every order turn up."""
    p = draw(st.integers(1, 6))
    degree = p - draw(st.integers(0, p - 1))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=degree, max_size=degree))
    else:
        moduli = draw(st.lists(st.floats(0.5, 3.0), min_size=degree, max_size=degree))
        angles = draw(st.lists(st.floats(0.0, np.pi), min_size=degree // 2, max_size=degree // 2))
        roots = [r * np.exp(1j * a) for r, a in zip(moduli, angles)]
        roots = roots + [np.conj(z) for z in roots] + [-moduli[-1]] * (degree % 2)
        # prod_i (1 - z / z_i) = 1 + sum_j c_j z^j
        coeffs = list(np.poly(1.0 / np.array(roots))[1:].real)
    return coeffs + [0.0] * (p - degree)


@settings(max_examples=400, deadline=None)
@given(ar_coefficients(), st.sampled_from([0.0, 0.05, 0.3]))
def test_check_stability_matches_roots_oracle(coeffs, delta):
    stable, gap = roots_oracle(coeffs, delta)
    # np.roots is not exact either: away from the boundary only
    assume(gap > 1e-6)
    assert check_stability(np.array(coeffs), delta) == stable


def alpha_curves(draw, p):
    """p random SampledCurve or first-order FourierCurve coefficient curves,
    the j-th within +-1.6 / j, in steps of 1e-6."""
    curves = []
    for j in range(1, p + 1):
        value = st.floats(-1.6 / j, 1.6 / j).map(lambda v: round(v, 6))
        if draw(st.booleans()):
            curves.append(SampledCurve(draw(st.lists(value, min_size=1, max_size=6))))
        else:
            a0, a1, b1 = (draw(value) for _ in range(3))
            curves.append(FourierCurve(a0, a=[a1], b=[b1]))
    return curves


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from([0.0, 0.05]))
def test_validation_matches_a_per_row_roots_oracle(data, p, delta):
    alpha = alpha_curves(data.draw, p)
    u = np.arange(1, process.STABILITY_GRID + 1) / process.STABILITY_GRID
    rows = np.stack([c.values(u) for c in alpha], axis=-1)
    verdicts = [roots_oracle(row, delta) for row in rows]
    assume(min(gap for _, gap in verdicts) > 1e-6)
    first_bad = next((i for i, (stable, _) in enumerate(verdicts) if not stable), None)
    if first_bad is None:
        assert TvARModel(p, alpha, ConstantCurve(1.0), delta=delta).validated
    else:
        with pytest.raises(ValueError, match=rf"root condition at u={u[first_bad]:.6f}$"):
            TvARModel(p, alpha, ConstantCurve(1.0), delta=delta)


class HalfNanCurve(Curve):
    """0.5 up to u = 1/2 and nan after it, which no library curve returns."""

    def values(self, u):
        return np.where(np.asarray(u) <= 0.5, 0.5, np.nan)


def test_validation_refuses_non_finite_coefficients():
    with pytest.raises(ValueError, match="AR coefficients must be finite"):
        TvARModel(1, [HalfNanCurve()], ConstantCurve(1.0))
    # the first bad row decides the message
    with pytest.raises(ValueError, match=r"root condition at u=0\.001953$"):
        TvARModel(2, [HalfNanCurve(), SampledCurve([1.5, 0.0])], ConstantCurve(1.0))
    with pytest.raises(ValueError, match="AR coefficients must be finite"):
        check_stability([0.5, np.inf])


def test_validation_names_the_first_violating_u():
    # rows 1.5 (cell 2) and 1.2 (cell 3) both violate; sorted, 1.2 comes
    # first, but the first violating u lies in cell 2, at 129/512
    with pytest.raises(ValueError, match=r"u=0\.251953$"):
        TvARModel(1, [SampledCurve([0.5, 1.5, 1.2, 0.5])], ConstantCurve(1.0))
    # a smoothly varying curve that violates near u = 0 fails at the first node
    with pytest.raises(ValueError, match=r"u=0\.001953$"):
        TvARModel(1, [FourierCurve(0.0, a=[1.2])], ConstantCurve(1.0))


def test_model_validation_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        TvARModel(0, [], FourierCurve(0.1, a=[0.5]))  # dips negative


def test_simulation_is_deterministic():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    a = simulate_tvar(m, 100, seed=42)
    b = simulate_tvar(m, 100, seed=42)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_tvar(m, 100, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_sign_convention_of_coefficients():
    # x_t + alpha x_{t-1} = e_t.  alpha = -0.9 means x_t = 0.9 x_{t-1} + e_t:
    # strong positive lag-1 correlation.  alpha = +0.9 flips the sign.
    pos = TvARModel(1, [ConstantCurve(-0.9)], ConstantCurve(1.0))
    neg = TvARModel(1, [ConstantCurve(0.9)], ConstantCurve(1.0))
    for model, sign in [(pos, 1.0), (neg, -1.0)]:
        x = simulate_tvar(model, 4000, seed=1).values
        r1 = np.dot(x[1:], x[:-1]) / np.dot(x, x)
        assert sign * r1 > 0.7


def with_burn_in(model, burn_in):
    """model with burn_in warm-up steps; model itself for None."""
    if burn_in is None:
        return model
    return TvARModel(model.p, model.alpha, model.sigma2, model.delta, burn_in=burn_in)


def simulate_oracle(model, n, seed):
    """The scalar recursion, one numpy float64 at a time, for one seed."""
    burn_in = model.burn_in
    total = burn_in + n
    eps = np.random.default_rng(seed).standard_normal(total)
    u = np.empty(total)
    u[:burn_in] = 1.0 / n
    u[burn_in:] = np.arange(1, n + 1) / n
    sig = np.sqrt(model.sigma2.values(u))
    if model.p == 0:
        return sig[burn_in:] * eps[burn_in:]
    a = model.alpha_matrix(u)
    x = np.zeros(total)
    for t in range(total):
        acc = sig[t] * eps[t]
        for j in range(1, min(model.p, t) + 1):
            acc -= a[t, j - 1] * x[t - j]
        x[t] = acc
    return x[burn_in:]


ORACLE_MODELS = {
    "white-tv-variance": TvARModel(0, [], FourierCurve(1.0, a=[0.3])),
    "ar1": TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 2.0])),
    "ar2-time-varying": TvARModel(
        2, [FourierCurve(0.3, a=[0.2]), SampledCurve([-0.2, 0.1, 0.3])], FourierCurve(1.0, a=[0.3]), burn_in=50
    ),
    # without burn-in, n = 1 stops before the first full-order step
    "ar3-time-varying": TvARModel(
        3,
        [FourierCurve(0.2, a=[0.1]), SampledCurve([-0.2, 0.1]), FourierCurve(0.05, b=[0.05])],
        SampledCurve([1.0, 2.0]),
        burn_in=0,
    ),
}
# _row_form_min rules that run every batch through one form of the recursion
FORMS = {"float loop": lambda p: 10**9, "row form": lambda p: 1}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
@pytest.mark.parametrize(
    "n, seeds, burn_in",
    [(40, [3, 1, 4, 1, 5], None), (33, [7, 8, 9, 10], 0), (1, [2, 6, 5, 3], None), (64, [11], 3), (50, [12, 13], None)],
)
def test_batch_rows_equal_scalar_oracle(monkeypatch, name, n, seeds, burn_in):
    model = with_burn_in(ORACLE_MODELS[name], burn_in)
    for row_form_min in FORMS.values():
        monkeypatch.setattr(process, "_row_form_min", row_form_min)
        batch = simulate_tvar_batch(model, n, seeds)
        assert batch.shape == (len(seeds), n)
        for row, seed in zip(batch, seeds):
            np.testing.assert_array_equal(row, simulate_oracle(model, n, seed))
    for seed in seeds:
        np.testing.assert_array_equal(simulate_tvar(model, n, seed).values, simulate_oracle(model, n, seed))


def test_batch_of_no_seeds_is_empty():
    assert simulate_tvar_batch(ORACLE_MODELS["ar1"], 16, []).shape == (0, 16)


@pytest.mark.parametrize("chunk", [1, 7, 20])
def test_batch_does_not_depend_on_replication_chunk(monkeypatch, chunk):
    # chunks of 7 leave a remainder of 6 of the 20 seeds
    seeds = list(range(100, 120))
    monkeypatch.setattr(process, "REPLICATION_CHUNK", chunk)
    for name in ("ar2-time-varying", "ar3-time-varying"):
        model = ORACLE_MODELS[name]
        expected = np.array([simulate_oracle(model, 48, seed) for seed in seeds])
        for row_form_min in FORMS.values():
            monkeypatch.setattr(process, "_row_form_min", row_form_min)
            np.testing.assert_array_equal(simulate_tvar_batch(model, 48, seeds), expected)


@pytest.mark.parametrize("block_values", [1, 2, 5, 7, 16, 40, 10**6])
def test_batch_does_not_depend_on_time_block(monkeypatch, block_values):
    # blocks of 1 to 13 steps, shorter and longer than the order, and one
    # block holding every step; chunks of 3 leave a remainder of 1 of the 7
    # seeds
    seeds = [3, 1, 4, 1, 5, 9, 2]
    monkeypatch.setattr(process, "SIM_BLOCK_VALUES", block_values)
    monkeypatch.setattr(process, "REPLICATION_CHUNK", 3)
    for name in ORACLE_MODELS:
        for n, burn_in in [(9, 0), (1, 2), (9, 11)]:
            model = with_burn_in(ORACLE_MODELS[name], burn_in)
            expected = np.array([simulate_oracle(model, n, seed) for seed in seeds])
            for row_form_min in FORMS.values():
                monkeypatch.setattr(process, "_row_form_min", row_form_min)
                np.testing.assert_array_equal(simulate_tvar_batch(model, n, seeds), expected)


def _traced_peak(call):
    # a warm-up call first, so that first-call set-up is not counted
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_peak_is_its_drive_and_result():
    # the result, one (p + B, 256) block buffer and the chunk's generators,
    # however long burn_in + n is
    model = with_burn_in(ORACLE_MODELS["ar2-time-varying"], 1000)
    seeds, n = list(range(256)), 512
    generators = _traced_peak(lambda: [np.random.default_rng(seed) for seed in seeds])
    peak = _traced_peak(lambda: simulate_tvar_batch(model, n, seeds))
    result = len(seeds) * n * 8
    block = (model.p + process.SIM_BLOCK_VALUES // len(seeds)) * len(seeds) * 8
    assert peak <= 1.1 * (result + block + generators)


def test_long_simulation_peak_is_a_small_multiple_of_its_output():
    # the float loop's Python lists hold one block of steps, not the series:
    # the whole-series form peaked at 13 times the output here
    model = ORACLE_MODELS["ar1"]
    n = 10**5
    assert _traced_peak(lambda: simulate_tvar(model, n, seed=1)) <= 3 * n * 8


def test_batch_rejects_bad_sizes():
    with pytest.raises(ValueError):
        simulate_tvar_batch(ORACLE_MODELS["ar1"], 0, [1])
    with pytest.raises(ValueError, match="burn_in"):
        with_burn_in(ORACLE_MODELS["ar1"], -1)


def test_white_noise_fast_path_matches_generic_loop():
    # an order-1 model with zero coefficient must consume the stream exactly
    # like the order-0 fast path
    trivial = TvARModel(1, [ConstantCurve(0.0)], ConstantCurve(2.0))
    flat = white_noise_model(2.0)
    a = simulate_tvar(trivial, 257, seed=9)
    b = simulate_tvar(flat, 257, seed=9)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=0)


def test_white_noise_variance_scale():
    x = simulate_tvar(white_noise_model(4.0), 20000, seed=3).values
    assert abs(np.var(x) - 4.0) < 0.15


def test_burn_in_default_and_override():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    a = simulate_tvar(m, 64, seed=5)
    b = simulate_tvar(with_burn_in(m, m.burn_in), 64, seed=5)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_tvar(with_burn_in(m, 0), 64, seed=5)
    assert not np.array_equal(a.values, c.values)


def test_burn_in_carried_by_model_json():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0), burn_in=77)
    m2 = model_from_json(json.loads(json.dumps(m.describe())))
    assert m2.burn_in == 77
    np.testing.assert_array_equal(
        simulate_tvar(m, 50, seed=0).values, simulate_tvar(m2, 50, seed=0).values
    )


def test_transfer_and_spectral_density_closed_form():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.3))
    lam = np.linspace(-np.pi, np.pi, 11)
    u = np.full(lam.shape, 0.5)
    # |1 + 0.5 e^{i lam}|^2 = 1.25 + cos(lam)
    np.testing.assert_allclose(transfer_abs2([0.5], lam), 1.25 + np.cos(lam), atol=1e-14)
    np.testing.assert_allclose(
        spectral_density(m, u, lam), 1.3 / (2 * np.pi) / (1.25 + np.cos(lam)), atol=1e-14
    )


def test_transfer_abs2_broadcasts_coefficient_rows():
    m = TvARModel(2, [FourierCurve(0.3, a=[0.2], b=[0.1]), ConstantCurve(-0.2)], ConstantCurve(1.0))
    u = (np.arange(9) + 0.5) / 9
    lam = FrequencyGrid(16).nodes
    coeffs = m.alpha_matrix(u)[:, None, :]  # (U, 1, p)
    expected = np.empty((len(u), len(lam)))
    for row, c in enumerate(coeffs[:, 0, :]):
        acc = np.ones(lam.shape, dtype=complex)
        for j in range(1, len(c) + 1):
            acc = acc + c[j - 1] * np.exp(1j * lam * j)
        expected[row] = np.abs(acc) ** 2
    np.testing.assert_array_equal(transfer_abs2(coeffs, lam), expected)


def _tv_ar2():
    return TvARModel(2, [FourierCurve(0.3, a=[0.2], b=[0.1]), ConstantCurve(-0.2)], SampledCurve([1.0, 1.5, 2.0]))


_OTHER = SpectrumField.from_coefficients([0.4], 1.2)
_GRID = FrequencyGrid(32)
_PHI = constant_weight(1.5)
_FIELD_CONSUMERS = {
    # (library call, its mesh oracle on the call's own u-grid): the model path
    # is exact; the midpoint sum of f/g aliases by 2.6e-4 on 32 nodes and by
    # 1.1e-14 on 128
    "kl_contrast": (
        lambda f: kl_contrast(_OTHER, f),
        lambda f: _mesh.kl_contrast(_OTHER, f, FrequencyGrid(128), TIME_CELLS),
    ),
    # the sandwich's sups are taken on its own mesh, a FrequencyGrid()
    "divergence_sandwich": (
        lambda f: divergence_sandwich(f, _OTHER),
        lambda f: _mesh.divergence_sandwich(f, _OTHER, FrequencyGrid(), SANDWICH_CELLS),
    ),
    "inverse_l2_distance": (
        lambda f: inverse_l2_distance(_OTHER, f),
        lambda f: _mesh.inverse_l2_distance(_OTHER, f, _GRID, DISTANCE_CELLS),
    ),
    "spectral_functional_limit": (
        lambda f: spectral_functional_limit(ar_inverse_weight(_tv_ar2()), f),
        lambda f: _mesh.spectral_functional_limit(ar_inverse_weight(_tv_ar2()), f, _GRID, TIME_CELLS),
    ),
    # the model path is exact; the midpoint sum of f^2 aliases by 1.4e-3 on
    # 32 nodes and by 5.6e-16 on 256
    "limit_covariance": (
        lambda f: limit_covariance(_PHI, _PHI, f),
        lambda f: _mesh.limit_covariance(_PHI, _PHI, f, FrequencyGrid(256), COVARIANCE_CELLS),
    ),
}


@pytest.mark.parametrize("consumer", sorted(_FIELD_CONSUMERS))
def test_model_field_and_callable_give_equal_results(consumer):
    model = _tv_ar2()
    compute, oracle = _FIELD_CONSUMERS[consumer]
    from_model = compute(model)
    assert compute(SpectrumField.from_model(model)) == from_model
    # the mesh oracle sums the density, the callable spectral_density(model, u, lam)
    assert oracle(model) == pytest.approx(from_model, rel=1e-12, abs=1e-14)


def test_tv_covariance_stationary_ar1_closed_form():
    # x_t + 0.5 x_{t-1} = e_t: phi = -0.5, c(0) = 1/(1-phi^2) = 4/3,
    # c(1) = phi c(0) = -2/3
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    assert tv_covariance(m, 0.5, 0) == pytest.approx(4 / 3, abs=1e-12)
    assert tv_covariance(m, 0.5, 1) == pytest.approx(-2 / 3, abs=1e-12)
    assert tv_covariance(m, 0.5, -1) == pytest.approx(-2 / 3, abs=1e-12)
    assert tv_covariance(m, 0.5, 2) == pytest.approx(1 / 3, abs=1e-12)


def test_tv_covariance_stationary_ar2_closed_form():
    # x_t = phi1 x_{t-1} + phi2 x_{t-2} + sigma e_t, i.e. alpha = (-phi1, -phi2)
    phi1, phi2, s2 = 0.5, -0.3, 1.7
    m = TvARModel(2, [ConstantCurve(-phi1), ConstantCurve(-phi2)], ConstantCurve(s2))
    c0 = s2 * (1 - phi2) / ((1 + phi2) * ((1 - phi2) ** 2 - phi1 ** 2))
    rho = [1.0, phi1 / (1 - phi2)]
    for _ in range(3):
        rho.append(phi1 * rho[-1] + phi2 * rho[-2])
    expected = c0 * np.array(rho)
    for k in range(5):
        assert tv_covariance(m, 0.3, k) == pytest.approx(expected[k], rel=0, abs=1e-13)
        assert tv_covariance(m, 0.3, -k) == pytest.approx(expected[k], rel=0, abs=1e-13)
    np.testing.assert_allclose(ar_autocov(m, [0.2, 0.9], 4), [expected, expected], rtol=0, atol=1e-13)


def test_ar_autocov_white_noise_and_shape():
    m = TvARModel(0, [], SampledCurve([1.0, 3.0]))
    cov = ar_autocov(m, np.array([[0.25], [0.75]]), 2)
    assert cov.shape == (2, 1, 3)
    np.testing.assert_array_equal(cov[:, 0, :], [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        ar_autocov(m, [0.5], -1)


def test_ar_autocov_of_no_times_is_empty():
    m = TvARModel(1, [SampledCurve([0.2, -0.4])], ConstantCurve(1.0))
    assert ar_autocov(m, np.array([]), 2).shape == (0, 3)
    assert ar_autocov(m, np.array([]), 2, squared=True).shape == (0, 3)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_coefficient_runs_rebuild_their_rows(p):
    rng = np.random.default_rng(p)
    for m in (0, 1, 2, 17):
        # rows drawn from a few values, so that runs of every length occur
        a = rng.integers(0, 2, size=(m, p)).astype(float)
        rows, owner = process._coefficient_runs(a)
        np.testing.assert_array_equal(rows[owner], a)
        assert owner.shape == (m,)
        # one row per run: consecutive runs differ
        assert np.all(np.any(rows[1:] != rows[:-1], axis=1))
        assert len(rows) == (1 + np.count_nonzero(np.any(a[1:] != a[:-1], axis=1)) if m else 0)


def test_ar_autocov_refuses_a_fractional_lag():
    # a fractional max_lag is refused, not truncated
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    for max_lag in (2.5, "abc", None):
        with pytest.raises(ValueError, match="max_lag"):
            ar_autocov(m, [0.5], max_lag)
    np.testing.assert_array_equal(ar_autocov(m, [0.5], 2.0), ar_autocov(m, [0.5], 2))


def test_tv_covariance_refuses_a_fractional_lag():
    # a fractional lag is refused, not truncated to the lag-1 value
    model = white_noise_model(1.0)
    for k in (1.5, "abc", None):
        with pytest.raises(ValueError, match="k must"):
            tv_covariance(model, 0.5, k)
    with pytest.raises(ValueError, match="u must"):
        tv_covariance(model, None, 0)
    assert tv_covariance(model, 0.5, -1.0) == tv_covariance(model, 0.5, 1) == 0.0


def test_coeff_autocorr_refuses_a_fractional_lag():
    model = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    for m in (1.5, "abc", None):
        with pytest.raises(ValueError, match="m must"):
            coeff_autocorr(model, [0.5], m)
    np.testing.assert_array_equal(coeff_autocorr(model, [0.5], -1.0), coeff_autocorr(model, [0.5], 1))


def test_tv_covariance_tracks_local_variance():
    m = TvARModel(0, [], SampledCurve([1.0, 3.0]))
    assert tv_covariance(m, 0.25, 0) == pytest.approx(1.0, abs=1e-12)
    assert tv_covariance(m, 0.75, 0) == pytest.approx(3.0, abs=1e-12)
    assert tv_covariance(m, 0.75, 1) == pytest.approx(0.0, abs=1e-12)


def test_simulated_variance_follows_step_curve():
    m = TvARModel(0, [], SampledCurve([1.0, 3.0]))
    x = simulate_tvar(m, 40000, seed=8).values
    assert abs(np.var(x[:20000]) - 1.0) < 0.1
    assert abs(np.var(x[20000:]) - 3.0) < 0.25


def test_time_series_csv_round_trip(tmp_path):
    x = simulate_tvar(white_noise_model(1.0), 37, seed=11)
    path = tmp_path / "x.csv"
    x.to_csv(path)
    y = TimeSeries.from_csv(path)
    np.testing.assert_array_equal(x.values, y.values)
    assert y.n == 37


# The csv-module writer and reader the series format was defined by, kept as
# the oracles of TimeSeries.to_csv and from_csv.
def csv_writer_oracle(values, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"])
        for v in values:
            writer.writerow([repr(float(v))])


def csv_reader_oracle(path):
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row or not row[0].strip():
                continue
            cell = row[0].strip()
            if lineno == 0 and cell.lower() == "x":
                continue
            rows.append(float(cell))
    return np.array(rows)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1, 1 / 3, 1.7976931348623157e308, 2.0**-1022, 123456789.0]


@pytest.mark.parametrize("n", [1, 37, 16384])
def test_to_csv_bytes_equal_csv_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[: min(n, len(EDGE_VALUES))] = EDGE_VALUES[:n]
    TimeSeries(values).to_csv(tmp_path / "new.csv")
    csv_writer_oracle(values, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert TimeSeries.from_csv(tmp_path / "new.csv").values.tobytes() == values.tobytes()


def test_to_csv_bytes_do_not_depend_on_the_write_block(tmp_path, monkeypatch):
    # 37 values in blocks of 5 leave a last block of 2
    values = np.random.default_rng(5).standard_normal(37)
    monkeypatch.setattr(process, "SIM_BLOCK_VALUES", 5)
    TimeSeries(values).to_csv(tmp_path / "new.csv")
    csv_writer_oracle(values, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


SERIES_TEXTS = {
    "no header": "0.1\n-0.0\n5e-324\n1e16\n",
    "X header": "X\n0.1\n2.5\n",
    "x header, CRLF": "x\r\n0.1\r\n-3.25e-7\r\n",
    "LF, no final newline": "x\n0.1\n7",
    "blank lines": "x\n\n0.1\n\n\n2.5\n\n",
    "whitespace around cells": "  x  \n  0.1\n\t2.5 \n 1e16\t\n",
    "whitespace-only lines": "x\n   \n0.1\n\t\n2.5\n",
    "blank first cell": "x\n ,9\n0.1\n",
    "underscore digits": "x\n1_000.5\n0.1\n",
    "multi-column": "x,y,z\n0.1,9,9\n2.5,abc\n-1e-300,1,2\n",
    "multi-column, no header": "0.1,2\n2.5,3\n",
    "one value": "x\n42\n",
}


@pytest.mark.parametrize("text", SERIES_TEXTS.values(), ids=SERIES_TEXTS.keys())
def test_from_csv_matches_csv_reader(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    assert TimeSeries.from_csv(path).values.tobytes() == csv_reader_oracle(path).tobytes()


@pytest.mark.parametrize("text", ["x\r\n0.1\r\n2.5\r\n", "X\n0.1\n\n2.5\n", "0.1\n2.5\n", "x,y\n0.1,1\n2.5,2\n"])
def test_from_csv_parses_well_formed_files_without_the_line_scan(tmp_path, monkeypatch, text):
    # the line-by-line scan is the path for lines loadtxt refuses; a
    # well-formed file, with or without its header, never reaches it
    def refuse(path, header):
        raise AssertionError("line scan used")

    monkeypatch.setattr(process, "_scan_series", refuse)
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    assert TimeSeries.from_csv(path).values.tolist() == [0.1, 2.5]


@pytest.mark.parametrize(
    "text, line, cell",
    [
        ("x\n0.1\nabc\n", 3, "'abc'"),
        ("x\r\n0.1\r\n\r\n2.5\r\n1.2.3\r\n", 5, "'1.2.3'"),
        ("0.1\n\n#note\n", 3, "'#note'"),
        ("x\n   \nabc,1\n", 3, "'abc'"),
        ("0.1\nx\n", 2, "'x'"),
    ],
    ids=["after header", "CRLF after a blank line", "comment", "after a whitespace line", "header below line 1"],
)
def test_from_csv_names_file_and_line_of_a_bad_cell(tmp_path, text, line, cell):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {cell} is not a number")):
        TimeSeries.from_csv(path)


@pytest.mark.parametrize(
    "text, line, cell",
    [
        ("x\n0.1\nnan\n", 3, "'nan'"),
        ("x\r\n0.1\r\n\r\n-inf\r\n", 4, "'-inf'"),
        ("0.1\n1e999,2\n", 2, "'1e999'"),
        ("x\n   \n0.1\n NaN \n", 4, "'NaN'"),
    ],
    ids=["nan after header", "CRLF after a blank line", "overflow, no header", "after a whitespace line"],
)
def test_from_csv_names_file_and_line_of_a_non_finite_cell(tmp_path, text, line, cell):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {cell} is not finite")):
        TimeSeries.from_csv(path)


@pytest.mark.parametrize("text", ["", "x\n", "x\r\n\r\n", "\n\n"])
def test_from_csv_without_observations_is_refused_without_warning(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no observations (need a nonempty series)")):
            TimeSeries.from_csv(path)


def test_from_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        TimeSeries.from_csv(tmp_path / "none.csv")


def test_model_json_round_trip_all_curve_types():
    m = TvARModel(
        2,
        [FourierCurve(0.3, a=[0.1], b=[0.05]), ConstantCurve(0.1)],
        SampledCurve([1.0, 2.0]),
        delta=0.05,
    )
    m2 = model_from_json(json.loads(json.dumps(m.describe())))
    assert m2.p == 2 and m2.delta == 0.05
    np.testing.assert_array_equal(
        simulate_tvar(m, 64, seed=2).values, simulate_tvar(m2, 64, seed=2).values
    )


def test_model_json_needs_a_parsed_object(tmp_path):
    # the JSON text and a file holding it are refused: callers parse first
    text = json.dumps(white_noise_model(1.5).describe())
    path = tmp_path / "model.json"
    path.write_text(text)
    for source in (text, str(path)):
        with pytest.raises(ValueError, match="^model must be a JSON object, got "):
            model_from_json(source)


@pytest.mark.parametrize(
    "edit, unknown",
    [
        (lambda d: d.update(burnin=5), "burnin"),
        (lambda d: d["sigma2"].update(valu=2.0), "valu"),
        (lambda d: d["alpha"][0].update(a1=[0.1]), "a1"),
    ],
)
def test_model_json_rejects_unknown_keys(edit, unknown):
    payload = TvARModel(1, [FourierCurve(0.3, a=[0.1])], ConstantCurve(1.0)).describe()
    assert set(payload) == set(process.MODEL_KEYS)
    edit(payload)
    with pytest.raises(ValueError, match=f"unknown .*key.* {unknown}"):
        model_from_json(payload)


def test_describe_mentions_order_and_burn_in():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0), burn_in=123)
    d = m.describe()
    assert d["p"] == 1
    assert d["burn_in"] == 123


def test_alpha_matrix_shape():
    m = TvARModel(2, [ConstantCurve(0.5), ConstantCurve(-0.1)], ConstantCurve(1.0))
    u = np.array([0.2, 0.9])
    a = m.alpha_matrix(u)
    assert a.shape == (2, 2)
    np.testing.assert_allclose(a[:, 0], 0.5)
    np.testing.assert_allclose(a[:, 1], -0.1)
