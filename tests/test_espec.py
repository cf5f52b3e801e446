import dataclasses
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
    UPPER_LEVEL,
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
from locstat.process import TvARModel, simulate_tvar
from locstat.spectral import (
    TestFunction,
    ar_inverse_weight,
    constant_weight,
    lag_curve_weight,
    quadratic_form_matrix,
    spectral_functional,
)


def flat_noise_field():
    return SpectrumField.from_model(TvARModel((), 1.0))


def test_replication_seed_deterministic_and_distinct():
    assert replication_seed(2026, 3) == replication_seed(2026, 3)
    seen = {replication_seed(7, n, r) for n in (256, 512) for r in range(50)}
    assert len(seen) == 100
    assert replication_seed(7, 1, 2) != replication_seed(7, 2, 1)


def test_replication_seed_refuses_what_it_would_truncate():
    assert replication_seed(np.int64(3), 2.0) == replication_seed(3, 2)
    for master, index, message in [(0, 1.5, "index"), (0.9, 1, "seed"), (0, -1, "index"), (True, 1, "seed")]:
        with pytest.raises(ValueError, match=f"^{message} must be"):
            replication_seed(master, index)


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


def test_clopper_pearson_upper_refuses_counts_that_are_not_integers():
    # a fractional count is refused, not truncated
    for successes, trials in [(2.5, 10), (2, 10.5), ("abc", 10), (None, 10), (float("nan"), 10), (2, 0)]:
        with pytest.raises(ValueError, match="successes|trials"):
            clopper_pearson_upper(successes, trials)
    assert clopper_pearson_upper(2.0, 10.0) == clopper_pearson_upper(2, 10)


def test_clopper_pearson_upper_equals_beta_quantile():
    # the 0.99 quantile of Beta(k + 1, R - k), to 1e-12 relative; betaincinv
    # itself is off by up to 9e-13 on this grid (R = 200000, k = 5), against a
    # 40-digit root of the binomial sum
    from scipy import special

    for trials in (1, 7, 50, 1000, 10000, 200000):
        for k in sorted({0, 1, 2, 5, trials // 3, trials // 2, trials - 2, trials - 1} & set(range(trials))):
            expected = float(special.betaincinv(k + 1, trials - k, UPPER_LEVEL))
            assert clopper_pearson_upper(k, trials) == pytest.approx(expected, rel=1e-12, abs=0)


def test_clopper_pearson_upper_solves_the_binomial_identity():
    # SciPy-free: P(Bin(R, upper) <= k) = 1 - 0.99 to 1e-12, or to the change
    # one ulp of upper makes (the larger near 1: 1.9e-12 at R = 60, k = 59)
    for trials in (1, 2, 7, 20, 60):
        limits = [clopper_pearson_upper(k, trials) for k in range(trials + 1)]
        assert all(a < b for a, b in zip(limits, limits[1:]))
        for k, x in enumerate(limits[:-1]):
            cdf = math.fsum(math.comb(trials, i) * x**i * (1 - x) ** (trials - i) for i in range(k + 1))
            slope = trials * math.comb(trials - 1, k) * x**k * (1 - x) ** (trials - 1 - k)
            assert abs(cdf - (1 - UPPER_LEVEL)) <= max(1e-12 * (1 - UPPER_LEVEL), slope * math.ulp(x))


def test_binomial_tail_sum_is_called_inside_its_lower_tail(monkeypatch):
    # clopper_pearson_upper answers k = 0 and k = trials in closed form and
    # starts at (k + 1)/(trials + 1), where the tail is above 1 - 0.99, so
    # every sum it asks for has 1 <= k < trials and k < (trials + 1) x: the
    # terms fall from i = k down, the one loop of _binomial_log_cdf
    calls = []
    real = espec._binomial_log_cdf

    def recorder(k, trials, x):
        calls.append((k, trials, x))
        return real(k, trials, x)

    monkeypatch.setattr(espec, "_binomial_log_cdf", recorder)
    cases = [(k, trials) for trials in range(1, 121) for k in range(trials + 1)]
    for trials in (10**3, 10**4, 2 * 10**5, 10**6, 10**7):
        cases += [(k, trials) for k in sorted({0, 1, 2, 3, 10, trials // 100, trials // 2, trials - 2, trials - 1, trials})]
    for k, trials in cases:
        before = len(calls)
        clopper_pearson_upper(k, trials)
        assert (len(calls) == before) == (k in (0, trials))
    assert len(calls) > len(cases)
    assert all(1 <= k < trials and k < (trials + 1) * x for k, trials, x in calls)


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats and scipy.optimize take most of a second to import and
    # scipy.special a third of one.  No locstat process loads any SciPy
    # module: not the import, not a tail study, not a constrained Fourier
    # fit.  Nor does the import load concurrent.futures (0.8 MB of RSS),
    # which no locstat code uses
    code = f"""
import json, sys
import locstat, locstat.cli
print([m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent")])
from locstat.curves import ConstantCurve, FourierCurve
from locstat.estimator import fit_fourier_tvar
from locstat.process import TvARModel, simulate_tvar
with open({str(tmp_path / "tail.json")!r}, "w") as f:
    json.dump({{"design": "linear", "n": 64, "replications": 1000, "etas": [1.0, 2.0]}}, f)
locstat.cli.main(["tail-study", "--config", f.name, "--seed", "1", "--out", {str(tmp_path / "tail")!r}])
model = TvARModel([FourierCurve(-0.6, [0.35], [0.0])], ConstantCurve(1.0))
assert fit_fourier_tvar(simulate_tvar(model, 256, seed=0).values, k_n=3).constrained
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(process.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
    assert (tmp_path / "tail" / "tail_rows.csv").exists()


def test_studies_load_no_numpy_ma_and_call_no_eigensolver(tmp_path):
    # np.median's first call imports numpy.ma (1.3 MB of RSS) and np.roots'
    # first eigensolve touches LAPACK (0.9 MB).  A rate study, an
    # equivalence study and the models' root checks need neither: the root
    # condition is the Schur-Cohn recursion, so they all run with the
    # eigensolvers made to raise (np.roots too, which holds its own
    # reference to eigvals), and no median imports numpy.ma
    code = f"""
import json, sys
import numpy as np
def refuse(*args, **kwargs):
    raise AssertionError("eigensolver called")
np.linalg.eigvals = np.linalg.eig = np.roots = refuse
import locstat.cli
from locstat.estimator import fit_monotone_tvar
from locstat.harness import wavy_alpha_model
from locstat.process import TvARModel, check_stability, simulate_tvar
from locstat.curves import ConstantCurve
for name, config in [("rate-study", {{"n_list": [64, 128], "replications": 3}}),
                     ("equivalence", {{"n_list": [64, 128], "replications": 3}})]:
    path = {str(tmp_path)!r} + "/" + name + ".json"
    with open(path, "w") as f:
        json.dump(config, f)
    locstat.cli.main([name, "--config", path, "--out", {str(tmp_path)!r} + "/" + name])
model = wavy_alpha_model()
assert check_stability([1.5, 0.56]) and not check_stability([1.2])
TvARModel([ConstantCurve(0.5), ConstantCurve(-0.2)], ConstantCurve(1.0))
# the fit reports alpha_stable through check_stability
fit_monotone_tvar(simulate_tvar(model, 512, seed=0).values, p=2)
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(process.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "False"
    assert (tmp_path / "rate-study" / "rate_rows.csv").exists()
    assert (tmp_path / "equivalence" / "equivalence_rows.csv").exists()


def test_tail_bounds_frozen_values():
    # eta=3, R^2=1, L=1, n=100: 2 exp(-9 / (8 (1 + 3/10)))
    assert tail_bound_quadratic(3.0, 1.0, 1.0, 100) == pytest.approx(
        2 * math.exp(-9 / 10.4), rel=1e-14
    )
    assert tail_bound_quadratic(3.0, 1.0, 1.0, 100) == pytest.approx(0.8417792817226771)
    assert tail_bound_linear(3.0, 1.0) == pytest.approx(6 * math.exp(-3 / 16), rel=1e-14)


@pytest.mark.parametrize("n", [64, 1024])
def test_tail_bound_quadratic_has_no_overflow_at_any_threshold(n):
    # eta^2 overflows from eta = 1.34e154 on, and R^2 / eta below 5.6e-309
    with np.errstate(over="raise", invalid="raise"):
        for eta in (1.34e154, 1e155, 1e300, 1.7976931348623157e308):
            assert tail_bound_quadratic(np.float64(eta), 1.0, 2.0, n) == 0.0
        for eta in (1e-320, 5e-324):
            assert tail_bound_quadratic(np.float64(eta), 1.0, 2.0, n) == 2.0
        # the two forms of the exponent agree to rounding where neither overflows
        for eta in (1e-300, 0.5, 3.0, 1e150):
            eta_sq_form = 2.0 * math.exp(-(eta**2) / (8.0 * (1.0 + 2.0 * eta / math.sqrt(n))))
            assert tail_bound_quadratic(np.float64(eta), 1.0, 2.0, n) == pytest.approx(eta_sq_form, rel=1e-14)


def test_tail_spec_designs_and_validation():
    spec = TailStudySpec.from_design("unit", 50, 1000, [1.0, 2.0])
    np.testing.assert_array_equal(spec.lambdas, np.ones(50))
    lin = TailStudySpec.from_design("linear", 4, 1000, [1.0])
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
            TailStudySpec.from_design(**{"design": "linear", "n": 4, "replications": 1000, "etas": [1.0], **bad})
    # a list or object design is compared with the names, not hashed
    for design in ("cube", ["unit"], {"unit": 1}, None):
        with pytest.raises(ValueError, match="^unknown design "):
            TailStudySpec.from_design(design, 4, 1000, [1.0])
    default = TailStudySpec.from_design()
    assert (default.n, default.replications, default.seed) == (1024, 200000, 0)
    np.testing.assert_array_equal(default.lambdas, np.ones(1024))
    np.testing.assert_array_equal(default.etas, 0.5 * np.arange(1, 11))


def test_chi2_tail_study_deterministic_and_chunk_invariant(monkeypatch):
    etas = np.array([0.5, 1.0, 2.0])
    a = chi2_tail_study(TailStudySpec.from_design("unit", 20, 5000, etas, seed=5))
    b = chi2_tail_study(TailStudySpec.from_design("unit", 20, 5000, etas, seed=5))
    assert [r["exceedances"] for r in a] == [r["exceedances"] for r in b]
    d = chi2_tail_study(TailStudySpec.from_design("unit", 20, 5000, etas, seed=6))
    assert [r["exceedances"] for r in a] != [r["exceedances"] for r in d]
    # chunked draws consume one stream and each row is reduced in a fixed
    # order, so the chunk size changes no bit of S: with thresholds set exactly
    # at values of |S| (drawn and reduced here in one block), a last-bit change
    # would move a count.  One row per chunk, 700 rows per chunk (which leaves
    # a remainder) and one chunk of every replication, at n = 20 and at n = 1
    for n, replications in [(20, 5000), (1, 20000)]:
        spec = TailStudySpec.from_design("linear", n, replications, [1.0], seed=5)
        z = np.random.default_rng(spec.seed).standard_normal((replications, n))
        abs_s = np.abs(np.einsum("ij,j->i", z * z - 1.0, spec.lambdas) / math.sqrt(n))
        spec = dataclasses.replace(spec, etas=np.sort(abs_s)[np.linspace(0, replications - 1, 12).astype(int)])
        expected = [int(np.count_nonzero(abs_s >= eta)) for eta in spec.etas]
        for values in (n, 700 * n, 10**9):
            monkeypatch.setattr(espec, "TAIL_CHUNK_VALUES", values)
            assert [r["exceedances"] for r in chi2_tail_study(spec)] == expected


def _tail_study_peak(replications):
    """tracemalloc peak of a linear-design tail study with n = 1024, after a
    warm-up call, so that the lazy import of numpy.random is not counted."""
    chi2_tail_study(TailStudySpec.from_design("linear", 8, 1000, [1.0], seed=3))
    spec = TailStudySpec.from_design("linear", 1024, replications, [1.0, 2.0], seed=3)
    tracemalloc.start()
    try:
        chi2_tail_study(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chi2_tail_study_memory_does_not_grow_with_replications():
    assert _tail_study_peak(20000) <= 1.5 * _tail_study_peak(2000)


def test_chi2_tail_study_peak_is_one_chunk():
    # one reused buffer of TAIL_CHUNK_VALUES normals, squared and reduced in place
    assert _tail_study_peak(20000) <= 1.5 * espec.TAIL_CHUNK_VALUES * 8


def test_chi2_tail_study_bounds_hold():
    etas = np.array([1.0, 2.0, 3.0, 4.0])
    for spec in (
        TailStudySpec.from_design("unit", 50, 20000, etas, seed=1),
        TailStudySpec.from_design("linear", 50, 20000, etas, seed=2),
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
    phi = ar_inverse_weight(TvARModel([ConstantCurve(0.5)], ConstantCurve(1.0)))
    val = limit_covariance(phi, phi, flat_noise_field())
    assert val == pytest.approx(16.5 * np.pi**2, rel=1e-10)


def test_limit_covariance_accepts_model():
    phi = constant_weight(1.0)
    assert limit_covariance(phi, phi, TvARModel((), 1.0)) == pytest.approx(2.0, rel=1e-12)


def test_spectral_process_sample_deterministic():
    model = TvARModel((), 1.0)
    phi = constant_weight(1.0)
    a = spectral_process_sample(model, phi, 64, 5, seed=3)
    b = spectral_process_sample(model, phi, 64, 5, seed=3)
    np.testing.assert_array_equal(a.functionals, b.functionals)
    assert a.center == b.center


def per_replication_functionals(model, phi, n, seeds):
    return [spectral_functional(simulate_tvar(model, n, s), phi) for s in seeds]


BATCH_CASES = [
    (TvARModel([ConstantCurve(0.5)], SampledCurve([1.0, 2.0])), None),
    (TvARModel([FourierCurve(0.3, a=[0.2]), SampledCurve([-0.2, 0.1, 0.3])], FourierCurve(1.0, a=[0.3])), 40),
]


@pytest.mark.parametrize("model, burn_in", BATCH_CASES)
def test_spectral_process_sample_equals_per_replication_loop(monkeypatch, model, burn_in):
    monkeypatch.setattr(process, "REPLICATION_CHUNK", 7)
    if burn_in is not None:
        model = TvARModel(model.alpha, model.sigma2, burn_in=burn_in)
    phi = ar_inverse_weight(model)
    s = spectral_process_sample(model, phi, 96, 17, seed=21)
    expected = per_replication_functionals(model, phi, 96, [replication_seed(21, r) for r in range(17)])
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
    model = TvARModel((), 1.0)
    phi = constant_weight(1.0)
    s = spectral_process_sample(model, phi, 64, 40, seed=4, centering="mean")
    assert abs(np.sum(s.deviations)) < 1e-10 * np.sum(np.abs(s.deviations))
    assert s.centering == "mean"
    assert s.variance() == pytest.approx(float(np.var(s.deviations, ddof=1)))


def test_spectral_process_sample_analytic_center_is_population_value():
    model = TvARModel((), 2.0)
    phi = constant_weight(1.0)
    s = spectral_process_sample(model, phi, 32, 5, seed=5)
    # int phi f = sigma^2 for the flat weight on white noise
    assert s.center == pytest.approx(2.0, rel=1e-12)


def test_spectral_process_sample_validation():
    model = TvARModel((), 1.0)
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
        TestFunction(None, None)


def test_expected_functional_trace_white_noise_is_one():
    val = expected_functional_trace(TvARModel((), 1.0), constant_weight(1.0), 64)
    assert val == pytest.approx(1.0, rel=1e-12)
    # no cap on n: the covariance band takes O((burn_in + n) K) memory
    assert expected_functional_trace(TvARModel((), 1.0), constant_weight(1.0), 4096) == 1.0


def test_expected_functional_trace_refuses_a_fractional_n():
    # a fractional n is refused, not truncated
    model, phi = TvARModel((), 1.0), constant_weight(1.0)
    for n in (2.5, "abc", None, 0):
        with pytest.raises(ValueError, match="n must"):
            expected_functional_trace(model, phi, n)
    assert expected_functional_trace(model, phi, 64.0) == expected_functional_trace(model, phi, 64)


def test_expected_functional_trace_near_limit_for_stationary_ar():
    from locstat.spectral import spectral_functional_limit

    model = TvARModel([ConstantCurve(0.5)], ConstantCurve(1.0))
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
    model = TvARModel(_TV_ALPHA[:p], _TV_SIGMA2, burn_in=burn_in)
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
    model = TvARModel([], sigma2)
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
        bias_scaling_study(TvARModel((), 1.0), constant_weight(1.0), **kwargs)


def test_bias_scaling_study_white_noise():
    rows = bias_scaling_study(
        TvARModel((), 1.0), constant_weight(1.0), [32, 64], 200, seed=11
    )
    assert [r["n"] for r in rows] == [32, 64]
    for r in rows:
        assert r["limit"] == pytest.approx(1.0, rel=1e-12)
        assert r["stderr"] > 0
        assert abs(r["mean"] - 1.0) < 5 * r["stderr"]
        assert r["sqrt_n_bias"] == pytest.approx(
            math.sqrt(r["n"]) * abs(r["mean"] - r["limit"])
        )
