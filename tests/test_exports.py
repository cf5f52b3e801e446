import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import locstat

MODULES = sorted(info.name for info in pkgutil.iter_modules(locstat.__path__))
# the library modules in the order the package exports them; cli is the one
# module outside the package API
LIBRARY = ("curves", "process", "spectral", "likelihood", "isotonic", "estimator", "espec", "harness")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"locstat.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing


def test_package_exports_resolve_once():
    assert not [export for export in locstat.__all__ if not hasattr(locstat, export)]
    assert len(set(locstat.__all__)) == len(locstat.__all__)


def test_package_exports_are_the_module_lists():
    assert sorted(LIBRARY) == [name for name in MODULES if name != "cli"]
    modules = [importlib.import_module(f"locstat.{name}") for name in LIBRARY]
    assert locstat.__all__ == ["__version__"] + [export for module in modules for export in module.__all__]


def test_package_import_loads_no_cli():
    code = "import sys, locstat; print(sorted(m for m in sys.modules if m.startswith(('locstat', 'argparse'))))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(locstat.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == repr(sorted(["locstat"] + [f"locstat.{name}" for name in LIBRARY]))


# Every time integral has one resolution, a module constant; these options,
# which only tests ever set, are gone.
REMOVED_OPTIONS = {"u_grid_size", "u_resolution", "sigma2_init"}
REMOVED_FROM = {
    "divergence_sandwich": {"grid"},
    "fit_fourier_tvar": {"eps"},
    "clopper_pearson_upper": {"level"},
    # coeff_autocorr returns the whole table c(u, 0..p)
    "coeff_autocorr": {"m"},
    # the rate study is one keyword call, and it runs on one thread
    "rate_study": {"spec", "threads"},
    # the empirical spectral functional is the lag sum alone; its quadrature
    # and quadratic-form sums are test oracles
    "spectral_functional": {"path", "grid"},
    # the fit's settings are its keywords
    "fit_monotone_tvar": {"config"},
}


def _public_callables():
    """(name, callable) for every callable of locstat.__all__, with each
    class's constructor and the methods it defines."""
    for name in locstat.__all__:
        obj = getattr(locstat, name)
        if inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
                    yield f"{name}.{attr}", getattr(obj, attr)
        elif callable(obj):
            yield name, obj


def test_no_public_callable_takes_a_removed_option():
    offenders = {}
    for name, fn in _public_callables():
        try:
            params = set(inspect.signature(fn).parameters)
        except ValueError:  # a builtin without a signature
            continue
        taken = params & (REMOVED_OPTIONS | REMOVED_FROM.get(name, set()))
        if taken:
            offenders[name] = sorted(taken)
    assert offenders == {}
    # the checker sees what it is looking for
    assert {
        "divergence_sandwich",
        "fit_fourier_tvar",
        "clopper_pearson_upper",
        "coeff_autocorr",
        "rate_study",
        "spectral_functional",
        "fit_monotone_tvar",
        "TvARModel.validate",
        "TailStudySpec.from_design",
    } <= {name for name, _ in _public_callables()}


# Names that are gone: the divergence D(g, f) has one path,
# divergence_sandwich(g, f)["divergence"], the design-sum remainder of the
# log spectrum had no caller, the weighted AR least squares is the alpha
# step of fit_monotone_tvar alone, the rate study's parameters and defaults
# are rate_study's keywords and its result is (rows, summary), the
# Kolmogorov identity of the AR log spectrum is a test oracle, the local
# covariance is ar_autocov(model, u, k)[..., k], the conditional contrast
# is likelihood_gap(series, g)["conditional"], the fit's settings are
# fit_monotone_tvar's keywords, the ordinary periodogram is a test oracle,
# pava_monotone returns its fitted array and the dense-kernel cap raises
# ValueError.
REMOVED_NAMES = {
    "kl_divergence",
    "log_riemann_remainder",
    "wls_ar",
    "RateStudySpec",
    "RateStudyResult",
    "ar_log_spectrum_integral",
    "tv_covariance",
    "conditional_likelihood",
    "FitConfig",
    "periodogram",
    "IsotonicFit",
    "ResourceLimitError",
}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_exports_a_removed_name(name):
    module = importlib.import_module(f"locstat.{name}")
    assert REMOVED_NAMES.isdisjoint(module.__all__)


def test_removed_names_are_not_attributes():
    modules = [locstat] + [importlib.import_module(f"locstat.{name}") for name in LIBRARY]
    for module in modules:
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []
    assert REMOVED_NAMES.isdisjoint(locstat.__all__)


def test_weights_have_no_per_lag_accessor():
    # a weight hands out its lag coefficients as one table, TestFunction.lags
    assert not hasattr(locstat.TestFunction, "lag")
    assert hasattr(locstat.TestFunction, "lags")


def test_lag_products_and_curve_calls_have_one_interface():
    # the pre-periodogram's lag pairs are spectral._lag_index's, and a curve
    # is evaluated by values(u) alone; the monotone step is a bounded sampled
    # curve and evaluates as one
    assert not hasattr(locstat.PrePeriodogram, "lag_products")
    curves = (locstat.ConstantCurve(1.0), locstat.FourierCurve(0.0, [0.5]), locstat.SampledCurve([1.0, 2.0]))
    assert not any(callable(curve) for curve in curves)
    assert [float(curve.values(0.5)) for curve in curves] == [1.0, -0.5, 1.0]
    assert issubclass(locstat.MonotoneStepCurve, locstat.SampledCurve)
    assert "values" not in vars(locstat.MonotoneStepCurve)


def test_tail_designs_have_one_constructor():
    # the design is a keyword of TailStudySpec.from_design, like every other setting
    assert not hasattr(locstat.TailStudySpec, "unit_design")
    assert not hasattr(locstat.TailStudySpec, "linear_design")
    assert hasattr(locstat.TailStudySpec, "from_design")


def test_study_defaults_live_in_the_library_calls():
    # the CLI lays a config over the signature defaults and keeps no table of its own
    import locstat.cli
    import locstat.harness

    tables = ("TAIL_DEFAULTS", "CLT_DEFAULTS", "PROP33_DEFAULTS", "_tail_spec")
    assert [name for name in tables if hasattr(locstat.cli, name)] == []
    assert not hasattr(locstat.harness, "EQUIVALENCE_SEED")
    # and so are the fit's, which no config class holds
    defaults = {name: param.default for name, param in inspect.signature(locstat.fit_monotone_tvar).parameters.items()}
    assert defaults == {
        "series": inspect.Parameter.empty,
        "p": 1,
        "k_n": None,
        "eps": None,
        "max_iter": 100,
        "rel_tol": 1e-8,
    }
