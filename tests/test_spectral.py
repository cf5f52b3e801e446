import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _mesh
from locstat import spectral
from locstat.curves import ConstantCurve, FourierCurve
from locstat.process import TvARModel, simulate_tvar, white_noise_model
from locstat.spectral import (
    FrequencyGrid,
    PrePeriodogram,
    TestFunction,
    ar_inverse_weight,
    constant_weight,
    lag_curve_weight,
    quadratic_form_matrix,
    spectral_functional,
    spectral_functional_limit,
    weight_norms,
)


def rand_series(n, seed):
    return simulate_tvar(white_noise_model(1.0), n, seed)


def products(x, k):
    """The times and products x_i x_j at lag k through spectral._lag_index."""
    x = np.asarray(getattr(x, "values", x), dtype=float)
    t, i, j = spectral._lag_index(len(x), k)
    return t, x[i] * x[j]


def evaluate(pre, t, lam):
    """Oracle: J(t/n, lam) for one 1-based t, summed lag by lag."""
    t = int(t)
    if not 1 <= t <= pre.n:
        raise ValueError("t must lie in 1..n")
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape)
    for k in range(0, pre.n):
        tt, prods = _mesh.lag_products(pre.x, k)
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
        t, v = products(x, 0)
        np.testing.assert_array_equal(t, np.arange(1, 7))
        np.testing.assert_allclose(v, x * x)
        # k=1: product x_{t+1} x_t, defined for t = 1..5
        t, v = products(x, 1)
        np.testing.assert_array_equal(t, np.arange(1, 6))
        np.testing.assert_allclose(v, x[1:] * x[:-1])
        # k=2 straddles: i = t+1, j = t-1, needs 2 <= t <= 5
        t, v = products(x, 2)
        np.testing.assert_array_equal(t, np.arange(2, 6))
        np.testing.assert_allclose(v, x[2:] * x[:-2])

    def test_lag_products_even_in_k(self):
        x = rand_series(33, 0)
        for k in (1, 2, 7):
            tp, vp = products(x, k)
            tm, vm = products(x, -k)
            np.testing.assert_array_equal(tp, tm)
            np.testing.assert_array_equal(vp, vm)

    def test_out_of_range_lag_is_empty(self):
        t, v = products(np.ones(4), 4)
        assert t.size == 0 and v.size == 0

    def test_lag_products_follow_the_index_definition_at_every_lag(self):
        for n in range(1, 10):
            x = np.arange(1.0, n + 1) ** 1.5
            for k in range(-2 * n - 2, 2 * n + 3):
                for got, want in zip(products(x, k), _mesh.lag_products(x, k)):
                    np.testing.assert_array_equal(got, want)

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
        per = _mesh.periodogram(x, g)
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
        t, v = products(x, 0)
        np.testing.assert_array_equal(t, [1, 2, 3])
        np.testing.assert_allclose(v, x * x)
        # k=1 pairs x_{t+1} x_t, so t=3 has no partner; k=2 is admissible only at t=2
        t, v = products(x, 1)
        np.testing.assert_array_equal(t, [1, 2])
        np.testing.assert_allclose(v, [2.0, 6.0])
        t, v = products(x, 2)
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
        for times in ([0, 2], [6], [1.5], [[1, 2]], [2, 10**20]):
            with pytest.raises(ValueError, match=r"^times must be a 1-d sequence of integers in 1\.\.5$"):
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
    per = _mesh.periodogram(x, freqs)
    fft = np.abs(np.fft.fft(x.values))[1:32] ** 2 / (2 * np.pi * 64)
    np.testing.assert_allclose(per, fft, rtol=1e-10)


def _cos_lags(u):
    # c(u, 0) = 0 and c(u, +-1) = pi: the weight phi = cos lam
    return np.stack([np.zeros(u.shape), np.full(u.shape, np.pi)], axis=-1)


@pytest.mark.parametrize("support", [None, -1, 1.5, "abc"])
def test_weight_lag_support_is_required(support):
    # every functional of a weight is a finite lag sum, so a weight without
    # a lag support of at least 0 cannot be built
    with pytest.raises(ValueError, match="lag support"):
        TestFunction(_cos_lags, support)


def test_weight_values_are_its_lag_sum():
    # a weight is given by its lags alone
    phi = TestFunction(_cos_lags, 1)
    lam = np.linspace(-np.pi, np.pi, 33)
    np.testing.assert_allclose(phi.values(0.4, lam), np.cos(lam), rtol=0, atol=1e-15)
    assert phi.values(np.full((3, 1), 0.4), lam[None, :]).shape == (3, 33)


@pytest.mark.parametrize(
    "lags_fn",
    [
        lambda u: np.pi,  # a scalar
        lambda u: np.zeros(u.shape + (3,)),  # one lag too many
        lambda u: np.zeros(u.shape + (1,)),  # one lag too few
        lambda u: np.zeros((2,) + u.shape + (2,)),  # an extra leading axis
    ],
)
def test_weight_lags_refuse_a_table_of_the_wrong_shape(lags_fn):
    # a table that is not u.shape + (J + 1,) would broadcast silently
    phi = TestFunction(lags_fn, 1)
    u = np.array([0.25, 0.5, 0.75])
    with pytest.raises(ValueError, match=r"lag table has shape .*, expected \(3, 2\)"):
        phi.lags(u)
    with pytest.raises(ValueError, match="lag table"):
        phi.values(u, 0.0)


def test_constant_weight_lags():
    phi = constant_weight(2.0)
    np.testing.assert_array_equal(phi.lags(np.array([0.3, 1.0])), [[4 * np.pi], [4 * np.pi]])
    assert phi.lag_support == 0
    np.testing.assert_allclose(phi.values(0.3, np.array([0.0, 1.0])), 2.0)


def test_lag_curve_weight_reconstruction():
    # phi(u, lam) = (1/2pi)(c0 + 2 c1 cos lam) with c0 = 1, c1 = pi -> contains cos lam
    phi = lag_curve_weight({0: 1.0, 1: np.pi})
    lam = np.linspace(-np.pi, np.pi, 9)
    np.testing.assert_allclose(
        phi.values(0.5, lam), (1 + 2 * np.pi * np.cos(lam)) / (2 * np.pi), atol=1e-14
    )
    # lags 0..J only; -1 mirrors 1, and lags past J are zero by the support
    np.testing.assert_array_equal(phi.lags(0.2), [1.0, np.pi])
    # a lag inside the support without a curve is zero
    np.testing.assert_array_equal(lag_curve_weight({2: 3.0}).lags(np.array([0.2])), [[0.0, 0.0, 3.0]])


@pytest.mark.parametrize(
    "curves, lag", [({"0": 1.0, "00": 2.0}, 0), ({"1": 1, " 1": 5}, 1), ({0: 3.0, 2: 1.0, "2": 2.0}, 2)]
)
def test_lag_curve_weight_refuses_a_duplicate_lag(curves, lag):
    # two keys naming one lag kept only the last one
    with pytest.raises(ValueError, match=f"lag {lag} is given twice"):
        lag_curve_weight(curves)


def test_ar_inverse_weight_is_reciprocal_spectrum():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    phi = ar_inverse_weight(m)
    lam = np.linspace(-np.pi, np.pi, 33)
    f = 1.0 / (2 * np.pi) / (1.25 + np.cos(lam))
    np.testing.assert_allclose(phi.values(np.full(33, 0.4), lam), 1.0 / f, rtol=1e-12)
    # lag coefficients int phi e^{i lam j} dlam:
    # c_0 = 4 pi^2 (1 + alpha^2)/sigma^2, c_1 = 4 pi^2 alpha / sigma^2, and
    # the support is the order, so c_2 = 0
    assert phi.lag_support == 1
    np.testing.assert_allclose(phi.lags(0.4), [4 * np.pi**2 * 1.25, 4 * np.pi**2 * 0.5], rtol=1e-15)


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
    a = spectral_functional(x, phi)
    b = float(x.values @ quadratic_form_matrix(phi, 200) @ x.values) / (2 * np.pi * 200)
    c = _mesh.spectral_functional(x, phi, FrequencyGrid(1024))
    assert b == pytest.approx(a, rel=1e-10)
    assert c == pytest.approx(a, rel=1e-10)


def test_quadratic_form_matrix_values():
    m = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    phi = ar_inverse_weight(m)
    U = quadratic_form_matrix(phi, 4)
    # U[r, s] = lag coefficient at (floor((r+s)/2)/n, r-s), 1-based r, s
    assert U[0, 0] == pytest.approx(phi.lags(1 / 4)[0])
    assert U[0, 1] == pytest.approx(phi.lags(1 / 4)[1])   # floor(3/2) = 1
    assert U[1, 2] == pytest.approx(phi.lags(2 / 4)[1])   # floor(5/2) = 2
    assert U[0, 3] == 0.0  # beyond the support
    np.testing.assert_allclose(U, U.T, atol=1e-14)


def test_quadratic_form_matrix_size_cap():
    with pytest.raises(ValueError, match="dense kernel capped at n = 4096"):
        quadratic_form_matrix(constant_weight(1.0), 4097)


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


def test_norm_report_is_a_record_of_floats():
    rep = weight_norms(lag_curve_weight({0: 1.0, 2: FourierCurve(0.2, a=[0.3])}), 64)
    assert rep._fields == ("l2", "l2_discrete", "lag_sup_sum", "variation_sup", "variation_sum")
    assert all(type(value) is float for value in rep)
    assert rep == (rep.l2, rep.l2_discrete, rep.lag_sup_sum, rep.variation_sup, rep.variation_sum)


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
    a = spectral_functional(x, phi)
    b = float(x @ quadratic_form_matrix(phi, n) @ x) / (2 * np.pi * n)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
