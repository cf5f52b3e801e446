import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import locstat.espec as espec
import locstat.process as process
from locstat.curves import ConstantCurve, FourierCurve, SampledCurve
from locstat.espec import (
    TailStudySpec,
    bias_scaling_study,
    chi2_tail_study,
    clopper_pearson_upper,
    expected_functional_trace,
    limit_covariance,
    replication_seed,
    spectral_process_sample,
    tail_bound_linear,
    tail_bound_quadratic,
)
from locstat.likelihood import SpectrumField
from locstat.process import TvARModel, simulate_tvar, white_noise_model
from locstat.spectral import (
    TestFunction,
    ar_inverse_weight,
    constant_weight,
    lag_curve_weight,
    quadratic_form_matrix,
    spectral_functional,
)


def flat_noise_field():
    return SpectrumField.from_model(white_noise_model(1.0))


def test_replication_seed_deterministic_and_distinct():
    assert replication_seed(2026, 3) == replication_seed(2026, 3)
    seen = {replication_seed(7, n, r) for n in (256, 512) for r in range(50)}
    assert len(seen) == 100
    assert replication_seed(7, 1, 2) != replication_seed(7, 2, 1)


def test_clopper_pearson_upper():
    assert clopper_pearson_upper(100, 100) == 1.0
    # k = 0 closed form: 1 - (1 - level)^{1/n}
    assert clopper_pearson_upper(0, 100) == pytest.approx(1 - 0.01 ** (1 / 100), rel=1e-10)
    assert clopper_pearson_upper(5, 100) > 0.05  # strictly above the point estimate
    assert clopper_pearson_upper(5, 100) < clopper_pearson_upper(10, 100)
    with pytest.raises(ValueError):
        clopper_pearson_upper(5, 4)
    with pytest.raises(ValueError):
        clopper_pearson_upper(-1, 4)


def test_clopper_pearson_upper_equals_beta_quantile():
    from scipy import stats

    for trials in (7, 1000, 10000):
        for k in sorted({0, 1, 2, trials // 3, trials - 2, trials - 1}):
            expected = float(stats.beta.ppf(0.99, k + 1, trials - k))
            assert clopper_pearson_upper(k, trials) == expected


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.optimize take most of a second to import and
    # scipy.special a third of one, a cost no locstat process may pay before
    # it calls the one function that needs it
    code = "import sys, locstat, locstat.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(process.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_tail_bounds_frozen_values():
    # eta=3, R^2=1, L=1, n=100: 2 exp(-9 / (8 (1 + 3/10)))
    assert tail_bound_quadratic(3.0, 1.0, 1.0, 100) == pytest.approx(
        2 * math.exp(-9 / 10.4), rel=1e-14
    )
    assert tail_bound_quadratic(3.0, 1.0, 1.0, 100) == pytest.approx(0.8417792817226771)
    assert tail_bound_linear(3.0, 1.0) == pytest.approx(6 * math.exp(-3 / 16), rel=1e-14)


def test_tail_spec_designs_and_validation():
    spec = TailStudySpec.unit_design(50, 1000, [1.0, 2.0])
    np.testing.assert_array_equal(spec.lambdas, np.ones(50))
    lin = TailStudySpec.linear_design(4, 1000, [1.0])
    np.testing.assert_allclose(lin.lambdas, [1.25, 1.5, 1.75, 2.0])
    assert spec.n == 50
    with pytest.raises(ValueError):
        TailStudySpec(np.ones(5), 999, np.array([1.0]))  # too few replications
    with pytest.raises(ValueError):
        TailStudySpec(np.array([1.0, -1.0]), 1000, np.array([1.0]))
    with pytest.raises(ValueError):
        TailStudySpec(np.ones(5), 1000, np.array([2.0, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        TailStudySpec(np.ones(5), 1000, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        chi2_tail_study("not a spec")
    for bad in ({"seed": -1}, {"etas": {}}, {"etas": 1.0}, {"replications": None}, {"n": "abc"}, {"n": 0}):
        with pytest.raises(ValueError):
            TailStudySpec.linear_design(**{"n": 4, "replications": 1000, "etas": [1.0], **bad})


def test_chi2_tail_study_deterministic_and_chunk_invariant(monkeypatch):
    etas = np.array([0.5, 1.0, 2.0])
    a = chi2_tail_study(TailStudySpec.unit_design(20, 5000, etas, seed=5))
    b = chi2_tail_study(TailStudySpec.unit_design(20, 5000, etas, seed=5))
    assert [r["exceedances"] for r in a] == [r["exceedances"] for r in b]
    # chunked draws consume one stream, so the chunk size cannot matter
    monkeypatch.setattr(espec, "TAIL_CHUNK_VALUES", 700 * 20)  # chunks of 700 rows
    c = chi2_tail_study(TailStudySpec(np.ones(20), 5000, etas, seed=5))
    assert [r["exceedances"] for r in a] == [r["exceedances"] for r in c]
    d = chi2_tail_study(TailStudySpec.unit_design(20, 5000, etas, seed=6))
    assert [r["exceedances"] for r in a] != [r["exceedances"] for r in d]


def test_chi2_tail_study_memory_does_not_grow_with_replications():
    def peak(replications):
        spec = TailStudySpec.linear_design(1024, replications, [1.0, 2.0], seed=3)
        tracemalloc.start()
        try:
            chi2_tail_study(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000) <= 1.5 * peak(2000)


def test_chi2_tail_study_bounds_hold():
    etas = np.array([1.0, 2.0, 3.0, 4.0])
    for spec in (
        TailStudySpec.unit_design(50, 20000, etas, seed=1),
        TailStudySpec.linear_design(50, 20000, etas, seed=2),
    ):
        for row in chi2_tail_study(spec):
            assert row["upper99"] <= row["bound_quadratic"]
            assert row["upper99"] <= row["bound_linear"]
            assert row["empirical"] <= row["upper99"]


def test_limit_covariance_flat_weight_is_two():
    # phi = 1: 2 pi int int 1 * 2 * (1/2pi)^2 = 2
    phi = constant_weight(1.0)
    val = limit_covariance(phi, phi, flat_noise_field())
    assert val == pytest.approx(2.0, rel=1e-12)


def test_limit_covariance_ar_inverse_weight_frozen():
    # phi(lam) = 2 pi (1.25 + cos lam) on the flat spectrum 1/(2 pi):
    # 4 pi int (1.25 + cos lam)^2 dlam = 16.5 pi^2
    phi = ar_inverse_weight(TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0)))
    val = limit_covariance(phi, phi, flat_noise_field())
    assert val == pytest.approx(16.5 * np.pi**2, rel=1e-10)


def test_limit_covariance_accepts_model():
    phi = constant_weight(1.0)
    assert limit_covariance(phi, phi, white_noise_model(1.0)) == pytest.approx(2.0, rel=1e-12)


def test_spectral_process_sample_deterministic():
    model = white_noise_model(1.0)
    phi = constant_weight(1.0)
    a = spectral_process_sample(model, phi, 64, 5, seed=3)
    b = spectral_process_sample(model, phi, 64, 5, seed=3)
    np.testing.assert_array_equal(a.functionals, b.functionals)
    assert a.center == b.center


def per_replication_functionals(model, phi, n, seeds, burn_in=None):
    return [spectral_functional(simulate_tvar(model, n, s, burn_in=burn_in), phi, path="lag") for s in seeds]


BATCH_CASES = [
    (TvARModel(1, [ConstantCurve(0.5)], SampledCurve([1.0, 2.0])), None),
    (TvARModel(2, [FourierCurve(0.3, a=[0.2]), SampledCurve([-0.2, 0.1, 0.3])], FourierCurve(1.0, a=[0.3])), 40),
]


@pytest.mark.parametrize("model, burn_in", BATCH_CASES)
def test_spectral_process_sample_equals_per_replication_loop(monkeypatch, model, burn_in):
    monkeypatch.setattr(process, "REPLICATION_CHUNK", 7)
    phi = ar_inverse_weight(model)
    s = spectral_process_sample(model, phi, 96, 17, seed=21, burn_in=burn_in)
    expected = per_replication_functionals(model, phi, 96, [replication_seed(21, r) for r in range(17)], burn_in)
    assert s.functionals.tolist() == expected


def test_bias_scaling_study_equals_per_replication_loop():
    model, _ = BATCH_CASES[1]
    phi = lag_curve_weight({0: 1.0, 2: SampledCurve([0.2, -0.1])})
    rows = bias_scaling_study(model, phi, [32, 50], 12, seed=4)
    for row in rows:
        values = per_replication_functionals(model, phi, row["n"], [replication_seed(4, row["n"], r) for r in range(12)])
        assert row["mean"] == math.fsum(values) / len(values)
        assert row["stderr"] == float(np.std(values, ddof=1) / math.sqrt(len(values)))


def test_spectral_process_sample_mean_centering_sums_to_zero():
    model = white_noise_model(1.0)
    phi = constant_weight(1.0)
    s = spectral_process_sample(model, phi, 64, 40, seed=4, centering="mean")
    assert abs(np.sum(s.deviations)) < 1e-10 * np.sum(np.abs(s.deviations))
    assert s.centering == "mean"
    assert s.variance() == pytest.approx(float(np.var(s.deviations, ddof=1)))


def test_spectral_process_sample_analytic_center_is_population_value():
    model = white_noise_model(2.0)
    phi = constant_weight(1.0)
    s = spectral_process_sample(model, phi, 32, 5, seed=5)
    # int phi f = sigma^2 for the flat weight on white noise
    assert s.center == pytest.approx(2.0, rel=1e-12)


def test_spectral_process_sample_validation():
    model = white_noise_model(1.0)
    phi = constant_weight(1.0)
    with pytest.raises(ValueError):
        spectral_process_sample(model, phi, 32, 1, seed=0)
    with pytest.raises(ValueError):
        spectral_process_sample(model, phi, 32, 5, seed=0, centering="median")
    for n, replications, seed in ((32, 5, -1), ("abc", 5, 0), (32, None, 0), (32.5, 5, 0)):
        with pytest.raises(ValueError):
            spectral_process_sample(model, phi, n, replications, seed)
    # a weight without lag support cannot be built, so no sample can take one
    with pytest.raises(ValueError, match="lag support"):
        TestFunction(lambda u, lam: np.ones(np.broadcast(u, lam).shape), None, None)


def test_expected_functional_trace_white_noise_is_one():
    val = expected_functional_trace(white_noise_model(1.0), constant_weight(1.0), 64)
    assert val == pytest.approx(1.0, rel=1e-12)
    # no cap on n: the covariance band takes O((burn_in + n) K) memory
    assert expected_functional_trace(white_noise_model(1.0), constant_weight(1.0), 4096) == 1.0


def test_expected_functional_trace_near_limit_for_stationary_ar():
    from locstat.spectral import spectral_functional_limit

    model = TvARModel(1, [ConstantCurve(0.5)], ConstantCurve(1.0))
    phi = constant_weight(1.0)
    trace = expected_functional_trace(model, phi, 128)
    limit = spectral_functional_limit(phi, model)
    assert trace == pytest.approx(limit, rel=0.05)


def _trace_oracle(model, phi, n):
    """tr(M Sigma) / (2 pi n) with Sigma = L^{-1} diag(sigma^2) L^{-T} from
    the dense (burn_in + n)-square recursion matrix L of the simulator."""
    burn_in = model.burn_in
    total = burn_in + n
    u = np.concatenate([np.full(burn_in, 1.0 / n), np.arange(1, n + 1) / n])
    L = np.eye(total)
    for s in range(total):
        for j in range(1, min(model.p, s) + 1):
            L[s, s - j] = model.alpha[j - 1].values(u[s])
    Linv = np.linalg.inv(L)
    sigma = (Linv * model.sigma2.values(u)) @ Linv.T
    M = quadratic_form_matrix(phi, n)
    return float(np.sum(M * sigma[burn_in:, burn_in:]) / (2 * np.pi * n))


_TV_ALPHA = (FourierCurve(-0.3, a=[0.25], b=[0.1]), SampledCurve([0.1, -0.2, 0.15]))
_TV_SIGMA2 = SampledCurve([1.0, 2.5, 1.5])


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("burn_in", [0, 7, 50])
@pytest.mark.parametrize("n", [1, 2, 33, 64])
def test_expected_functional_trace_matches_dense_recursion_oracle(p, burn_in, n):
    model = TvARModel(p, _TV_ALPHA[:p], _TV_SIGMA2, burn_in=burn_in)
    weights = [
        constant_weight(1.5),
        ar_inverse_weight(model),
        lag_curve_weight({0: SampledCurve([2.0, 3.0]), 1: FourierCurve(0.4, a=[0.3], b=[0.0]), 3: -0.2}),
    ]
    for phi in weights:
        exact = expected_functional_trace(model, phi, n)
        assert exact == pytest.approx(_trace_oracle(model, phi, n), rel=1e-12)


def test_expected_functional_trace_variance_only_model_is_mean_variance():
    sigma2 = SampledCurve([0.5, 1.0, 3.0, 2.0, 4.0])
    model = TvARModel(0, [], sigma2)
    n = 300
    exact = expected_functional_trace(model, constant_weight(1.0), n)
    assert exact == pytest.approx(np.mean(sigma2.values(np.arange(1, n + 1) / n)), rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "bad",
    [{"replications": 1}, {"replications": 0}, {"n_list": []}, {"n_list": {}}, {"n_list": 32}, {"seed": -1}],
)
def test_bias_scaling_study_rejects_bad_arguments_before_simulating(monkeypatch, bad):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking its arguments")

    monkeypatch.setattr(espec, "_functional_sample", no_simulation)
    kwargs = {"n_list": [16, 32], "replications": 4, "seed": 0, **bad}
    with pytest.raises(ValueError):
        bias_scaling_study(white_noise_model(1.0), constant_weight(1.0), **kwargs)


def test_bias_scaling_study_white_noise():
    rows = bias_scaling_study(
        white_noise_model(1.0), constant_weight(1.0), [32, 64], 200, seed=11
    )
    assert [r["n"] for r in rows] == [32, 64]
    for r in rows:
        assert r["limit"] == pytest.approx(1.0, rel=1e-12)
        assert r["stderr"] > 0
        assert abs(r["mean"] - 1.0) < 5 * r["stderr"]
        assert r["sqrt_n_bias"] == pytest.approx(
            math.sqrt(r["n"]) * abs(r["mean"] - r["limit"])
        )
