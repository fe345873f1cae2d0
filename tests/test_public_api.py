"""The public names: every export resolves, none is listed twice, and the set is pinned."""

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


def test_package_exports_are_pinned():
    # A public name added or removed shows up here as a test change.
    assert sorted(deference_lab.__all__) == [
        "BumpPair",
        "DegenerateBoxError",
        "Event",
        "Gamble",
        "MeasureSpec",
        "NotAViolationWitness",
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
