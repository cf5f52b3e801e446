import importlib
import pkgutil

import pytest

import locstat

MODULES = sorted(info.name for info in pkgutil.iter_modules(locstat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"locstat.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing


def test_package_exports_resolve_once():
    assert not [export for export in locstat.__all__ if not hasattr(locstat, export)]
    assert len(set(locstat.__all__)) == len(locstat.__all__)
