"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed criterion shows as a failed test).  The shared random
suite of 110 scenarios (worlds in {2, 3, 4}; every third one built to
satisfy trust, the rest Dirichlet-random) is generated once from a fixed
seed, so every criterion sees the same scenarios and reruns are exact.
"""

import json

import numpy as np
import pytest

from deference_lab import (
    BumpPair,
    Event,
    Gamble,
    MeasureSpec,
    ProbMass,
    Scenario,
    build_violation_box,
    check_global_trust,
    estimate_ae_trust,
    expected_gap,
    inaccuracy_mc,
    rhs_identity,
    sampling,
)
from deference_lab.cli import EXIT_OK, main
from oracles import (
    assert_negation_symmetric,
    event_violation_margin,
    ideal_mass,
    random_measure,
    random_scenario,
    trusting_scenario,
    wedge_inaccuracy,
)

MARGIN_TOL = 1e-9
SUITE_SEED = 20_240
SUITE_SIZE = 110


def _anti() -> Scenario:
    return Scenario.from_weights([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


def _truth() -> Scenario:
    return Scenario.from_weights([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(SUITE_SEED)
    scenarios = []
    for k in range(SUITE_SIZE):
        n = int(rng.integers(2, 5))
        maker = trusting_scenario if k % 3 == 0 else random_scenario
        scenarios.append(maker(rng, n))
    return [(s, check_global_trust(s)) for s in scenarios]


def _write_scenario(tmp_path, scenario: Scenario, name: str) -> str:
    document = {
        "worlds": list(scenario.space.labels),
        "agent": scenario.agent.weights.tolist(),
        "expert": [p.weights.tolist() for p in scenario.expert],
    }
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def _passed(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_anti_expert_worked_example(tmp_path, capsys):
    scenario = _anti()
    path = _write_scenario(tmp_path, scenario, "anti.json")
    assert main(["check", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["global"]["holds"] is False
    assert report["global"]["witness_event"] == ["w2"]

    margin, _ = event_violation_margin(scenario, Event(2, frozenset({1})))
    assert margin == pytest.approx(0.5, abs=MARGIN_TOL)

    box = build_violation_box(scenario, Gamble([1.0, -1.0]))
    assert box.value_margin == 1.0
    assert box.event_margin == 1.0
    assert box.delta == 1.0
    assert box.lower.tolist() == [1.0, -1.0]
    assert box.upper.tolist() == [2.0, 0.0]
    _passed("criterion 1 (anti-expert worked example)")


def test_criterion_2_trust_equals_ae_trust(suite):
    holding = violated = 0
    for k, (scenario, verdict) in enumerate(suite):
        estimate = estimate_ae_trust(scenario, 1.0, 100_000, seed=k)
        if verdict.holds:
            holding += 1
            assert estimate.value == 0.0, f"scenario {k}: sampled a violation yet trust holds"
        else:
            violated += 1
            assert estimate.value > 5 * estimate.std_error > 0.0, (
                f"scenario {k}: violation not visible at 5 sigma "
                f"(freq {estimate.value}, se {estimate.std_error})"
            )
    assert holding + violated >= 100 and holding >= 20 and violated >= 20

    anti = estimate_ae_trust(_anti(), 1.0, 100_000, seed=0)
    assert anti.value == pytest.approx(0.5, abs=0.01)
    _passed(
        f"criterion 2 (equivalence with almost-everywhere trust; "
        f"{holding} holding / {violated} violated)"
    )


def test_criterion_3_gap_identity(suite):
    rng = np.random.default_rng(3)
    for k, (scenario, _) in enumerate(suite[:50]):
        measure = MeasureSpec.gaussian(1.0) if k % 2 else random_measure(rng, scenario.n)
        gap = expected_gap(scenario, measure, 100_000, seed=k)
        rhs = rhs_identity(scenario, measure, 100_000, seed=k)
        combined = float(np.hypot(gap.std_error, rhs.std_error))
        assert abs(gap.value - rhs.value) <= 3 * combined + 1e-15, f"scenario {k}"

    for scenario in (_anti(), _truth()):
        gap = expected_gap(scenario, MeasureSpec.gaussian(1.0), 10_000_000, seed=1)
        rhs = rhs_identity(scenario, MeasureSpec.gaussian(1.0), 10_000_000, seed=1)
        combined = float(np.hypot(gap.std_error, rhs.std_error))
        assert abs(gap.value - rhs.value) <= 3 * combined
    _passed("criterion 3 (gap identity on 50 scenarios and at 10^7 samples)")


def test_criterion_4_trust_implies_nonpositive_gap(suite):
    rng = np.random.default_rng(4)
    checked = 0
    for k, (scenario, verdict) in enumerate(suite):
        if not verdict.holds:
            continue
        checked += 1
        measures = [MeasureSpec.gaussian(1.0)] + [
            random_measure(rng, scenario.n) for _ in range(10)
        ]
        for m, measure in enumerate(measures):
            estimate = expected_gap(scenario, measure, 20_000, seed=100 * k + m)
            assert estimate.value <= 3 * estimate.std_error, (
                f"scenario {k} measure {m}: gap {estimate.value} "
                f"exceeds 3 se {estimate.std_error}"
            )
    assert checked >= 20
    _passed(f"criterion 4 (gap nonpositive for all {checked} trust-holding scenarios)")


def test_criterion_5_violation_yields_positive_gap_measure(suite, tmp_path, capsys):
    checked = 0
    for k, (scenario, verdict) in enumerate(suite):
        if verdict.holds:
            continue
        checked += 1
        path = _write_scenario(tmp_path, scenario, f"violating_{k}.json")
        code = main(
            ["counterexample", path, "--samples", "100000", "--seed", str(k)]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK, f"scenario {k}: counterexample search failed"
        gap = report["gap"]
        assert gap["value"] > 5 * gap["std_error"] > 0.0, f"scenario {k}"

        fragment = report["measure"]
        measure = MeasureSpec.mixture(
            fragment["sigma"],
            tuple(
                BumpPair(Gamble(b["center"]), b["scale"], b["weight"])
                for b in fragment["bumps"]
            ),
        )
        assert measure.base_weight > 0.0
        assert_negation_symmetric(measure, scenario.n)
    assert checked >= 20
    _passed(f"criterion 5 (adversarial measure found for all {checked} violators)")


def test_criterion_6_exactness_anchors(monkeypatch):
    mixture = MeasureSpec.mixture(1.0, (BumpPair(Gamble([2.0, -1.0]), 0.5, 0.5),))
    for n, i, measure in ((2, 0, MeasureSpec.gaussian(1.0)), (2, 1, mixture), (4, 2, MeasureSpec.gaussian(2.0))):
        estimate = inaccuracy_mc(ideal_mass(n, i), i, measure, 20_000, seed=0)
        assert estimate.value == 0.0 and estimate.std_error == 0.0

    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        agent = rng.dirichlet(np.ones(n))
        scenario = Scenario.from_weights(agent, [agent] * n)
        gap = expected_gap(scenario, MeasureSpec.gaussian(1.0), 20_000, seed=1)
        rhs = rhs_identity(scenario, MeasureSpec.gaussian(1.0), 20_000, seed=1)
        assert gap.value == 0.0 and gap.std_error == 0.0
        assert rhs.value == 0.0 and rhs.std_error == 0.0

    anti = _anti()
    runs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        monkeypatch.setattr(sampling, "_memo", None)  # a fresh draw, not the memo
        runs[threads] = (
            estimate_ae_trust(anti, 1.0, 200_000, seed=2),
            expected_gap(anti, mixture, 200_000, seed=2),
            rhs_identity(anti, mixture, 200_000, seed=2),
            inaccuracy_mc(ProbMass([0.5, 0.5]), 0, mixture, 200_000, seed=2),
        )
    assert runs["1"] == runs["4"]
    _passed("criterion 6 (exact zeros and bit-reproducibility across thread counts)")


def test_criterion_7_quadrature_oracle():
    pairs = [
        ((0.5, 0.5), 0),
        ((0.9, 0.1), 0),
        ((0.25, 0.75), 1),
        ((0.6, 0.4), 1),
        ((0.15, 0.85), 0),
    ]
    for p, i in pairs:
        exact = wedge_inaccuracy(p, i, sigma=1.0)
        estimate = inaccuracy_mc(ProbMass(list(p)), i, MeasureSpec.gaussian(1.0), 1_000_000, seed=7)
        assert abs(estimate.value - exact) <= 3 * estimate.std_error, (p, i)
    _passed("criterion 7 (Monte Carlo matches angular quadrature on 5 pairs)")
