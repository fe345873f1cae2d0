"""The public names: every export resolves, and none is listed twice."""

import importlib
import pkgutil

import pytest

import deference_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(deference_lab.__path__))


def test_modules_are_found():
    assert "measures" in MODULES and "boxes" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"deference_lab.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_exports_resolve_once():
    exported = deference_lab.__all__
    assert len(exported) == len(set(exported)), "deference_lab.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(deference_lab, attr)]
    assert not missing, f"deference_lab.__all__ names missing attributes: {missing}"
