import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locstat import spectral
from locstat.curves import ConstantCurve, FourierCurve
from locstat.process import TvARModel, simulate_tvar, white_noise_model
from locstat.spectral import (
    FrequencyGrid,
    PrePeriodogram,
    ResourceLimitError,
    TestFunction,
    ar_inverse_weight,
    constant_weight,
    lag_curve_weight,
    periodogram,
    quadratic_form_matrix,
    spectral_functional,
    spectral_functional_limit,
    weight_norms,
)


def rand_series(n, seed):
    return simulate_tvar(white_noise_model(1.0), n, seed)


def evaluate(pre, t, lam):
    """Oracle: J(t/n, lam) for one 1-based t, summed lag by lag."""
    t = int(t)
    if not 1 <= t <= pre.n:
        raise ValueError("t must lie in 1..n")
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape)
    for k in range(0, pre.n):
        tt, prods = pre.lag_products(k)
        pos = np.searchsorted(tt, t)
        if pos >= len(tt) or tt[pos] != t:
            continue
        contrib = prods[pos] * np.cos(lam * k)
        out = out + (contrib if k == 0 else 2 * contrib)
    return out / (2 * np.pi)


class TestFrequencyGrid:
    def test_weights_sum_to_two_pi(self):
        g = FrequencyGrid(128)
        assert g.size == 128
        assert g.size * g.weight == pytest.approx(2 * np.pi)

    def test_nodes_are_symmetric_midpoints(self):
        g = FrequencyGrid(8)
        np.testing.assert_allclose(g.nodes, -g.nodes[::-1], atol=1e-15)
        assert np.all(np.abs(g.nodes) < np.pi)

    def test_integrates_trigonometric_polynomials_exactly(self):
        g = FrequencyGrid(64)
        assert np.sum(np.ones(g.size)) * g.weight == pytest.approx(2 * np.pi, abs=1e-12)
        for k in (1, 2, 5, 63):
            assert np.sum(np.cos(k * g.nodes)) * g.weight == pytest.approx(0.0, abs=1e-12)

    def test_size_must_be_even(self):
        with pytest.raises(ValueError):
            FrequencyGrid(7)


class TestPrePeriodogram:
    def test_lag_products_index_algebra_by_hand(self):
        x = np.arange(1.0, 7.0)  # 1..6
        pre = PrePeriodogram(x)
        t, v = pre.lag_products(0)
        np.testing.assert_array_equal(t, np.arange(1, 7))
        np.testing.assert_allclose(v, x * x)
        # k=1: product x_{t+1} x_t, defined for t = 1..5
        t, v = pre.lag_products(1)
        np.testing.assert_array_equal(t, np.arange(1, 6))
        np.testing.assert_allclose(v, x[1:] * x[:-1])
        # k=2 straddles: i = t+1, j = t-1, needs 2 <= t <= 5
        t, v = pre.lag_products(2)
        np.testing.assert_array_equal(t, np.arange(2, 6))
        np.testing.assert_allclose(v, x[2:] * x[:-2])

    def test_lag_products_even_in_k(self):
        x = rand_series(33, 0)
        pre = PrePeriodogram(x)
        for k in (1, 2, 7):
            tp, vp = pre.lag_products(k)
            tm, vm = pre.lag_products(-k)
            np.testing.assert_array_equal(tp, tm)
            np.testing.assert_array_equal(vp, vm)

    def test_out_of_range_lag_is_empty(self):
        pre = PrePeriodogram(np.ones(4))
        t, v = pre.lag_products(4)
        assert t.size == 0 and v.size == 0

    def test_lag_products_follow_the_index_definition_at_every_lag(self):
        for n in range(1, 10):
            x = np.arange(1.0, n + 1) ** 1.5
            pre = PrePeriodogram(x)
            for k in range(-2 * n - 2, 2 * n + 3):
                t = np.arange(1, n + 1)
                i, j = np.floor(t + 0.5 + k / 2).astype(int), np.floor(t + 0.5 - k / 2).astype(int)
                ok = (np.minimum(i, j) >= 1) & (np.maximum(i, j) <= n)
                tt, v = pre.lag_products(k)
                np.testing.assert_array_equal(tt, t[ok])
                np.testing.assert_array_equal(v, x[i[ok] - 1] * x[j[ok] - 1])

    def test_frequency_integral_recovers_squared_values(self):
        x = rand_series(61, 1)
        pre = PrePeriodogram(x)
        g = FrequencyGrid(256)
        vals = pre.evaluate_grid(g)
        integrals = vals.sum(axis=1) * g.weight
        scale = np.max(x.values**2)
        np.testing.assert_allclose(integrals, x.values**2, atol=1e-10 * scale)

    def test_time_average_is_periodogram(self):
        x = rand_series(48, 2)
        g = FrequencyGrid(128)
        avg = PrePeriodogram(x).evaluate_grid(g).mean(axis=0)
        per = periodogram(x, g)
        np.testing.assert_allclose(avg, per, atol=1e-12 * max(1.0, per.max()))

    def test_pointwise_evaluation_matches_grid(self):
        x = rand_series(17, 3)
        pre = PrePeriodogram(x)
        g = FrequencyGrid(16)
        vals = pre.evaluate_grid(g)
        for t in (1, 8, 17):
            for m in (0, 5, 15):
                assert evaluate(pre, t, g.nodes[m]) == pytest.approx(vals[t - 1, m], rel=1e-12)

    def test_lag_products_zero_padding(self):
        x = np.array([1.0, 2.0, 3.0])
        pre = PrePeriodogram(x)
        t, v = pre.lag_products(0)
        np.testing.assert_array_equal(t, [1, 2, 3])
        np.testing.assert_allclose(v, x * x)
        # k=1 pairs x_{t+1} x_t, so t=3 has no partner; k=2 is admissible only at t=2
        t, v = pre.lag_products(1)
        np.testing.assert_array_equal(t, [1, 2])
        np.testing.assert_allclose(v, [2.0, 6.0])
        t, v = pre.lag_products(2)
        np.testing.assert_array_equal(t, [2])
        np.testing.assert_allclose(v, [3.0])
        # the grid rows carry exactly these products, the rest padded by zeros
        g = FrequencyGrid(8)
        lam = g.nodes
        expected = np.array(
            [1 + 2 * 2 * np.cos(lam), 4 + 2 * 6 * np.cos(lam) + 2 * 3 * np.cos(2 * lam), np.full(8, 9.0)]
        )
        np.testing.assert_allclose(pre.evaluate_grid(g), expected / (2 * np.pi), rtol=0, atol=1e-14)

    # 16 nodes fold 300 lags modulo 32; 200 nodes take two cosine blocks
    @pytest.mark.parametrize("size", [16, 200])
    def test_requested_rows_equal_rows_of_full_grid(self, size):
        pre = PrePeriodogram(rand_series(300, 7))
        g = FrequencyGrid(size)
        full = pre.evaluate_grid(g)
        times = [300, 1, 150, 151, 150, 2]
        np.testing.assert_array_equal(pre.evaluate_grid(g, times), full[np.array(times) - 1])
        np.testing.assert_array_equal(pre.evaluate_grid(g, [77]), full[[76]])
        assert pre.evaluate_grid(g, []).shape == (0, size)

    @pytest.mark.parametrize("size", [16, 200])
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_grid_does_not_depend_on_chunk_size(self, monkeypatch, chunk, size):
        pre = PrePeriodogram(rand_series(300, 8))
        g = FrequencyGrid(size)
        full = pre.evaluate_grid(g)
        times = [5, 299, 100, 101]
        sub = pre.evaluate_grid(g, times)
        monkeypatch.setattr(spectral, "GRID_CHUNK_ROWS", chunk or pre.n)
        np.testing.assert_array_equal(pre.evaluate_grid(g), full)
        np.testing.assert_array_equal(pre.evaluate_grid(g, times), sub)

    @pytest.mark.parametrize("n, size", [(40, 8), (33, 16), (25, 64), (30, 260)])
    def test_grid_rows_match_oracle(self, n, size):
        # n > 2 * size folds lags modulo the grid's period; n < size does not;
        # 260 nodes take three cosine blocks
        pre = PrePeriodogram(rand_series(n, n))
        g = FrequencyGrid(size)
        vals = pre.evaluate_grid(g)
        for t in range(1, n + 1):
            ref = evaluate(pre, t, g.nodes)
            # rounding is relative to the row's scale where its terms cancel
            np.testing.assert_allclose(vals[t - 1], ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_grid_rejects_bad_times(self):
        pre = PrePeriodogram(np.ones(5))
        g = FrequencyGrid(4)
        for times in ([0, 2], [6], [1.5], [[1, 2]]):
            with pytest.raises(ValueError):
                pre.evaluate_grid(g, times)

    def test_grid_memory_linear_in_n_for_fixed_times(self):
        g = FrequencyGrid(64)
        times = [1, 100, 1000, 2000]
        peaks = []
        for n in (2048, 8192):
            pre = PrePeriodogram(rand_series(n, 9))
            tracemalloc.start()
            pre.evaluate_grid(g, times)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # linear growth gives at most 4x for 4x the length; an n x n lag matrix gave 16x
        assert peaks[1] <= 4.5 * peaks[0]


def test_periodogram_matches_fft():
    x = rand_series(64, 4)
    freqs = 2 * np.pi * np.arange(1, 32) / 64
    per = periodogram(x, freqs)
    fft = np.abs(np.fft.fft(x.values))[1:32] ** 2 / (2 * np.pi * 64)
    np.testing.assert_allclose(per, fft, rtol=1e-10)


@pytest.mark.parametrize("support", [None, -1, 1.5, "abc"])
def test_weight_lag_support_is_required(support):
    # every functional of a weight is a finite lag sum, so a weight without
    # a lag support of at least 0 cannot be built
    with pytest.raises(ValueError, match="lag support"):
        TestFunction(lambda u, lam: np.cos(lam), lambda u, j: np.full(np.shape(u), np.pi * (abs(j) == 1)), support)


def test_constant_weight_lags():
    phi = constant_weight(2.0)
    assert phi.lag(0.3, 0) == pytest.approx(4 * np.pi)
    assert phi.lag(0.3, 1) == 0.0
    np.testing.assert_allclose(phi.values(0.3, np.array([0.0, 1.0])), 2.0)


def test_lag_curve_weight_reconstruction():
    # phi(u, lam) = (1/2pi)(c0 + 2 c1 cos lam) with c0 = 1, c1 = pi -> contains cos lam
    phi = lag_curve_weight({0: 1.0, 1: np.pi})
    lam = np.linspace(-np.pi, np.pi, 9)
    np.testing.assert_allclose(
        phi.values(0.5, lam), (1 + 2 * np.pi * np.cos(lam)) / (2 * np.pi), atol=1e-14
    )
    assert phi.lag(0.2, 1) == pytest.approx(np.pi)
    assert phi.lag(0.2, -1) == pytest.approx(np.pi)
    assert phi.lag(0.2, 5) == 0.0


def test_ar_inverse_weight_is_reciprocal_spectrum():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    phi = ar_inverse_weight(m)
    lam = np.linspace(-np.pi, np.pi, 33)
    f = 1.0 / (2 * np.pi) / (1.25 + np.cos(lam))
    np.testing.assert_allclose(phi.values(np.full(33, 0.4), lam), 1.0 / f, rtol=1e-12)
    # lag coefficients int phi e^{i lam j} dlam:
    # c_0 = 4 pi^2 (1 + alpha^2)/sigma^2, c_1 = 4 pi^2 alpha / sigma^2
    assert phi.lag(0.4, 0) == pytest.approx(4 * np.pi**2 * 1.25)
    assert phi.lag(0.4, 1) == pytest.approx(4 * np.pi**2 * 0.5)
    assert phi.lag(0.4, 2) == 0.0


def test_spectral_functional_frozen_two_point_case():
    # x = (1, -1), phi = cos lam: the only admissible products are
    # x_1^2 = x_2^2 = 1 at lag 0 (coefficient 0) and x_1 x_2 = -1 at lag 1
    # (coefficient pi), giving (1/(2 pi n)) * 2 * (pi * -1) = -1/2
    phi = lag_curve_weight({1: np.pi})
    x = np.array([1.0, -1.0])
    assert spectral_functional(x, phi) == pytest.approx(-0.5, abs=1e-14)


def test_spectral_functional_paths_agree():
    m = TvARModel(1, [FourierCurve(0.2, a=[0.3])], FourierCurve(1.5, a=[0.4]))
    x = simulate_tvar(m, 200, seed=5)
    phi = ar_inverse_weight(m)
    a = spectral_functional(x, phi, path="lag")
    b = spectral_functional(x, phi, path="matrix")
    c = spectral_functional(x, phi, path="quadrature", grid=FrequencyGrid(1024))
    assert b == pytest.approx(a, rel=1e-10)
    assert c == pytest.approx(a, rel=1e-10)


def test_spectral_functional_quadrature_needs_grid():
    x = rand_series(16, 6)
    with pytest.raises(ValueError):
        spectral_functional(x, constant_weight(1.0), path="quadrature")


def test_spectral_functional_quadrature_memory_is_bounded_in_rows():
    # rows are summed GRID_CHUNK_ROWS at a time, so the peak stays below one
    # n x M matrix of floats; the whole weight and pre-periodogram matrices
    # took about six of them
    n, grid = 4096, FrequencyGrid(256)
    x = rand_series(n, 3).values
    phi = lag_curve_weight({0: 1.0, 1: FourierCurve(0.2, a=[0.3]), 3: -0.4})
    tracemalloc.start()
    try:
        value = spectral_functional(x, phi, path="quadrature", grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * grid.size * 8
    t = np.arange(1, n + 1) / n
    whole = np.sum(phi.values(t[:, None], grid.nodes[None, :]) * PrePeriodogram(x).evaluate_grid(grid))
    assert value == pytest.approx(whole * grid.weight / n, rel=1e-12)


def test_spectral_functional_unknown_path():
    x = rand_series(16, 6)
    with pytest.raises(ValueError):
        spectral_functional(x, constant_weight(1.0), path="fft")


def test_quadratic_form_matrix_values():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    phi = ar_inverse_weight(m)
    U = quadratic_form_matrix(phi, 4)
    # U[r, s] = lag coefficient at (floor((r+s)/2)/n, r-s), 1-based r, s
    assert U[0, 0] == pytest.approx(phi.lag(1 / 4, 0))
    assert U[0, 1] == pytest.approx(phi.lag(1 / 4, 1))   # floor(3/2) = 1
    assert U[1, 2] == pytest.approx(phi.lag(2 / 4, 1))   # floor(5/2) = 2
    assert U[0, 3] == 0.0  # beyond the support
    np.testing.assert_allclose(U, U.T, atol=1e-14)


def test_quadratic_form_matrix_size_cap():
    with pytest.raises(ResourceLimitError):
        quadratic_form_matrix(constant_weight(1.0), 5000)


def test_spectral_functional_limit_flat_case():
    # int int 1 * f = total variance 1 for unit white noise
    val = spectral_functional_limit(constant_weight(1.0), white_noise_model(1.0))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_weight_norms_constant_weight():
    rep = weight_norms(constant_weight(1.0), 64)
    assert rep.l2 == pytest.approx(np.sqrt(2 * np.pi), rel=1e-10)
    assert rep.l2_discrete == pytest.approx(np.sqrt(2 * np.pi), rel=1e-10)
    assert rep.lag_sup_sum == pytest.approx(2 * np.pi, rel=1e-12)
    assert rep.variation_sup == pytest.approx(0.0, abs=1e-12)
    assert rep.variation_sum == pytest.approx(0.0, abs=1e-12)


def test_weight_norms_ar_inverse_frozen_value():
    # alpha = 0.5, sigma2 = 1: lag coefficients 4pi^2(1.25) and 4pi^2(0.5)
    # twice, so the summed sup norm is 4pi^2(2.25) = 9 pi^2.  Scaling the
    # weight rescales every lag-based norm linearly.
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    rep = weight_norms(ar_inverse_weight(m), 64)
    assert rep.lag_sup_sum == pytest.approx(9 * np.pi**2, rel=1e-12)
    scaled = weight_norms(ar_inverse_weight(m, scale=1 / (2 * np.pi)), 64)
    assert scaled.lag_sup_sum == pytest.approx(4.5 * np.pi, rel=1e-12)


def test_weight_norms_elementary_relationships():
    # v_tilde <= v_sigma, rho2 <= rho_inf/sqrt(2pi), sup|phi| <= rho_inf/(2pi)
    models = [
        TvARModel(1, [FourierCurve(0.1, a=[0.35])], FourierCurve(1.2, b=[0.3])),
        TvARModel(2, [ConstantCurve(0.4), FourierCurve(0.0, a=[0.2])], ConstantCurve(0.9)),
    ]
    for m in models:
        rep = weight_norms(ar_inverse_weight(m), 128)
        assert rep.variation_sup <= rep.variation_sum + 1e-12
        assert rep.l2 <= rep.lag_sup_sum / np.sqrt(2 * np.pi) + 1e-12
        phi = ar_inverse_weight(m)
        u = np.linspace(1 / 256, 1.0, 256)
        lam = FrequencyGrid(256).nodes
        sup_phi = np.max(np.abs(phi.values(u[:, None], lam[None, :])))
        assert sup_phi <= rep.lag_sup_sum / (2 * np.pi) + 1e-12


def test_matrix_norm_bounds_hold():
    m = TvARModel(1, [FourierCurve(0.2, a=[0.3])], FourierCurve(1.1, a=[-0.2]))
    phi = ar_inverse_weight(m)
    for n in (32, 64):
        rep = weight_norms(phi, n)
        U = quadratic_form_matrix(phi, n)
        spec_norm = np.linalg.norm(U, 2)
        frob_sq = np.sum(U * U)
        assert spec_norm <= rep.lag_sup_sum * (1 + 1e-12)
        assert frob_sq / n <= 2 * np.pi * rep.l2_discrete**2 * (1 + 1e-12)
        # discrete-vs-continuous norm comparison
        assert rep.l2_discrete**2 <= rep.l2**2 + rep.lag_sup_sum * rep.variation_sup / n + 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_lag_and_matrix_paths_agree_on_random_data(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    x = rng.standard_normal(n)
    c0 = float(rng.uniform(0.5, 2.0))
    c1 = float(rng.uniform(-1.0, 1.0))
    c2 = float(rng.uniform(-0.5, 0.5))
    phi = lag_curve_weight({0: c0, 1: c1, 2: c2})
    a = spectral_functional(x, phi, path="lag")
    b = spectral_functional(x, phi, path="matrix")
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
