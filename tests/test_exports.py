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
REMOVED_FROM = {"divergence_sandwich": {"grid"}, "fit_fourier_tvar": {"eps"}, "clopper_pearson_upper": {"level"}}


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
    assert {"divergence_sandwich", "fit_fourier_tvar", "clopper_pearson_upper", "TvARModel.validate"} <= {
        name for name, _ in _public_callables()
    }


# Names that are gone: the divergence D(g, f) has one path,
# divergence_sandwich(g, f)["divergence"], and the design-sum remainder of the
# log spectrum had no caller.
REMOVED_NAMES = {"kl_divergence", "log_riemann_remainder"}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_exports_a_removed_name(name):
    module = importlib.import_module(f"locstat.{name}")
    assert REMOVED_NAMES.isdisjoint(module.__all__)


def test_removed_names_are_not_attributes():
    import locstat.likelihood

    for module in (locstat, locstat.likelihood):
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []
    assert REMOVED_NAMES.isdisjoint(locstat.__all__)
