"""The public names: every export resolves, none is listed twice, and the set is pinned.

The benchmark's tracer patches library functions by name, so it is run
here too: a name it needs must not leave the package unnoticed.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import deference_lab
from deference_lab import adversarial

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


def test_package_exports_have_one_home():
    # A name dropped from its module's __all__ but not the package's, or
    # exported by two modules, shows up here.
    exports = {name: importlib.import_module(f"deference_lab.{name}").__all__ for name in MODULES}
    homes = {name: [m for m in MODULES if name in exports[m]] for name in deference_lab.__all__}
    assert {name: found for name, found in homes.items() if len(found) != 1} == {}


def test_package_exports_are_pinned():
    # A public name added or removed shows up here as a test change.
    assert sorted(deference_lab.__all__) == [
        "BumpPair",
        "Event",
        "Gamble",
        "MeasureSpec",
        "Orientation",
        "ProbMass",
        "Scenario",
        "ScoreEstimate",
        "SearchExhaustedError",
        "TrustVerdict",
        "ValidationError",
        "ViolationBox",
        "WorldSpace",
        "build_adversarial_measure",
        "build_positive_box",
        "build_violation_box",
        "check_global_trust",
        "check_local_trust",
        "conditional_expectation",
        "estimate_ae_trust",
        "expectation",
        "expected_gap",
        "expert_event",
        "inaccuracy_mc",
        "rhs_identity",
    ]


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert all(getattr(owner, name) is not original for owner, name, original in patched)
    finally:
        tracer.uninstall()
    # Every (module, name) reference the tracer wraps; a new count means
    # the benchmark's spans now see a different set of calls.
    assert len(patched) == 36
    assert all(getattr(owner, name) is original for owner, name, original in patched)
    # The span wrapper names this exception in an ``except`` clause.
    assert issubclass(adversarial.SearchExhaustedError, Exception)
