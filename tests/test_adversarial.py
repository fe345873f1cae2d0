"""Adversarial measure synthesis: concentration makes violations score."""

import dataclasses
import functools

import numpy as np
import pytest

from deference_lab import (
    Gamble,
    MeasureSpec,
    Scenario,
    SearchExhaustedError,
    ValidationError,
    ViolationBox,
    build_adversarial_measure,
    build_positive_box,
    build_violation_box,
    check_global_trust,
    expectation,
    expected_gap,
    rhs_identity,
)
from deference_lab.core import SLACK
from deference_lab.measures import MIN_BASE_WEIGHT
from oracles import (
    QUARTER_ROWS,
    assert_negation_symmetric,
    component_gap,
    quarter_grid_orbits,
    random_scenario,
)


def _informed_but_flawed() -> Scenario:
    """Ideal experts on the two likely worlds; a slightly wrong one on the
    rare third.  Trust fails, yet under a plain Gaussian the agent still
    expects this expert to score far better."""
    return Scenario.from_weights(
        [0.45, 0.45, 0.1],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.0, 0.1]],
    )


@functools.cache
def _quarter_grid_boxes() -> tuple[list[tuple[Scenario, ViolationBox]], int]:
    """The box on each violating orbit representative of the n = 3 grid of
    masses in quarters, one scenario per orbit under world permutations:
    the (scenario, box) pairs built, and how many box steps failed."""
    boxes, box_failures = [], 0
    for key, _ in quarter_grid_orbits():
        agent, *expert = (QUARTER_ROWS[k] for k in key)
        scenario = Scenario.from_weights(agent, expert)
        verdict = check_global_trust(scenario)
        if verdict.holds:
            continue
        try:
            boxes.append((scenario, build_violation_box(scenario, verdict.witness)))
        except ValidationError:
            box_failures += 1
    return boxes, box_failures


def _box_for_witness(scenario: Scenario):
    verdict = check_global_trust(scenario)
    assert not verdict.holds
    witness = verdict.witness
    if expectation(scenario.agent, witness) > 0.0:
        return build_positive_box(scenario, witness)
    return build_violation_box(scenario, witness)


def _bump(scenario: Scenario, box: ViolationBox):
    """The bump pair of the measure built for the box."""
    measure, _ = build_adversarial_measure(scenario, box, 1.0, 20_000, seed=0)
    return measure.bumps[0]


class TestBumpPair:
    def test_unit_box_midpoint_and_scale(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        bump = _bump(anti_expert, box)
        assert bump.center == box.midpoint()
        assert bump.center.values.tolist() == [1.5, -0.5]
        assert bump.scale == box.delta / 6.0 == pytest.approx(1.0 / 6.0)

    def test_half_box_midpoint_and_scale(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([0.5, -0.5]))
        bump = _bump(anti_expert, box)
        assert bump.center == box.midpoint()
        assert bump.center.values.tolist() == [0.75, -0.25]
        assert bump.scale == box.delta / 6.0 == pytest.approx(1.0 / 12.0)

    def test_mass_containment_both_sides(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        mirror = box.mirrored()
        bump = _bump(anti_expert, box)
        center, scale = bump.center, bump.scale
        rng = np.random.default_rng(0)
        plus = center.values + scale * rng.standard_normal((50_000, 2))
        minus = -center.values + scale * rng.standard_normal((50_000, 2))
        in_box = np.all((plus > box.lower) & (plus < box.upper), axis=1).mean()
        in_mirror = np.all((minus > mirror.lower) & (minus < mirror.upper), axis=1).mean()
        assert in_box >= 0.99
        assert in_mirror >= 0.99


class TestBuildAdversarialMeasure:
    def test_anti_expert_succeeds_immediately(self, anti_expert):
        # The plain-Gaussian gap is already positive here, and the bump
        # pair only widens it.
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        measure, estimate = build_adversarial_measure(anti_expert, box, 1.0, 100_000, seed=0)
        assert measure.bumps[0].weight == 1.0 - MIN_BASE_WEIGHT
        assert estimate.value > 5 * estimate.std_error
        assert estimate.seed == 0

    def test_trust_holding_scenario_is_rejected(self, truth_expert, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        with pytest.raises(ValidationError):
            build_adversarial_measure(truth_expert, box, 1.0, 1_000, seed=0)

    @pytest.mark.parametrize("sigma", [0.0, np.inf])
    def test_bad_base_sigma_is_rejected(self, anti_expert, sigma):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        with pytest.raises(ValidationError, match="positive and finite"):
            build_adversarial_measure(anti_expert, box, sigma, 1_000, seed=0)

    def test_gaussian_negative_scenario_needs_concentration(self):
        # Violated, but the plain Gaussian scores the expert *better*; the
        # bump pair's positive gap must outweigh the base Gaussian's
        # negative one, which its weight of all but 2^-20 does.
        scenario = _informed_but_flawed()
        plain = expected_gap(scenario, MeasureSpec.gaussian(1.0), 400_000, seed=1)
        assert plain.value < -5 * plain.std_error
        box = _box_for_witness(scenario)
        measure, estimate = build_adversarial_measure(scenario, box, 1.0, 400_000, seed=0)
        assert 0.5 < measure.bumps[0].weight < 1.0
        assert estimate.value > 5 * estimate.std_error

    def test_returned_measure_is_admissible(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        measure, _ = build_adversarial_measure(anti_expert, box, 1.0, 100_000, seed=0)
        assert measure.base_weight > 0.0
        assert_negation_symmetric(measure, 2)

    def test_identity_stays_positive_under_returned_measure(self):
        scenario = _informed_but_flawed()
        box = _box_for_witness(scenario)
        measure, _ = build_adversarial_measure(scenario, box, 1.0, 400_000, seed=0)
        rhs = rhs_identity(scenario, measure, 400_000, seed=77)
        assert rhs.value > 3 * rhs.std_error

    def test_box_built_for_another_scenario_is_rejected(self, anti_expert, monkeypatch):
        # The expert always announces w2, so trust fails (X = [-3, 1]), yet
        # the anti-expert's witness [1, -1] is rejected everywhere here.
        scenario = Scenario.from_weights([0.5, 0.5], [[0.0, 1.0], [0.0, 1.0]])
        assert not check_global_trust(scenario).holds
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the box's witness")

        monkeypatch.setattr("deference_lab.adversarial.expected_gap", no_sampling)
        with pytest.raises(ValidationError, match="not a trust violation witness"):
            build_adversarial_measure(scenario, box, 1.0, 1_000, seed=0)
        with pytest.raises(ValidationError, match="not a trust violation witness"):
            build_adversarial_measure(scenario, box.mirrored(), 1.0, 1_000, seed=0)

    def test_positive_side_box_is_checked_through_its_mirror(self, anti_expert):
        # Every expert rejects X = [-1, 5], so X itself witnesses nothing on
        # the negative side; -X (everyone accepts, pi = -2) does.  The
        # mirror needs no sign of pi(X) and no nonzero P_i(X): on the
        # anti-expert pi(X) is -0.25 and 0, and the last X has P_2(X) = 0.
        hyperplane = Scenario.from_weights(
            [1 / 3, 1 / 3, 1 / 3],
            [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
        )
        cases = [
            (Scenario.from_weights([0.5, 0.5], [[0.9, 0.1], [0.9, 0.1]]), [-1.0, 5.0]),
            (anti_expert, [-1.0, 0.5]),
            (anti_expert, [-1.0, 1.0]),
            (hyperplane, [-1.0, 0.0, 2.0]),
        ]
        for scenario, x in cases:
            box = build_positive_box(scenario, Gamble(x))
            measure, estimate = build_adversarial_measure(scenario, box, 1.0, 20_000, seed=0)
            assert measure.bumps[0].weight == 1.0 - MIN_BASE_WEIGHT
            assert estimate.value > 5 * estimate.std_error

    def test_exhaustion_reports_best_candidate(self, anti_expert, monkeypatch):
        # A gap inside five standard errors must not pass: the real box's
        # estimate is replaced by one at 4.9 standard errors.
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))

        def within_five_errors(scenario, measure, samples, seed):
            estimate = expected_gap(scenario, measure, samples, seed)
            return dataclasses.replace(estimate, value=4.9 * estimate.std_error)

        monkeypatch.setattr("deference_lab.adversarial.expected_gap", within_five_errors)
        with pytest.raises(SearchExhaustedError) as excinfo:
            build_adversarial_measure(anti_expert, box, 1.0, samples=10_000, seed=0)
        assert excinfo.value.best_weight == 1.0 - MIN_BASE_WEIGHT
        assert excinfo.value.best_estimate.samples == 10_000
        assert excinfo.value.best_estimate.seed == 0

    def test_two_case_split_over_random_violations(self):
        # Witnesses on either side of the agent's desirability boundary
        # feed the matching box construction; the measure succeeds for all.
        rng = np.random.default_rng(2024)
        seen = {"negative": 0, "positive": 0}
        attempts = 0
        while attempts < 10:
            scenario = random_scenario(rng, int(rng.integers(2, 5)))
            verdict = check_global_trust(scenario)
            if verdict.holds:
                continue
            attempts += 1
            witness = verdict.witness
            if expectation(scenario.agent, witness) > 0.0:
                box = build_positive_box(scenario, witness)
                seen["positive"] += 1
            else:
                box = build_violation_box(scenario, witness)
                seen["negative"] += 1
            measure, estimate = build_adversarial_measure(scenario, box, 1.0, 100_000, seed=attempts)
            assert estimate.value > 5 * estimate.std_error
            assert measure.base_weight > 0.0
        assert seen["negative"] > 0 and seen["positive"] > 0  # 9 and 1 for this seed
        assert sum(seen.values()) == 10

    def test_every_buildable_quarter_grid_box(self):
        # Wherever the box step succeeds, the measure step must too.
        # Box-step failures are the box's own defect (ROADMAP item 13): an
        # outside expert within rounding of its zero hyperplane.  There are
        # 68, and they may only fall.
        boxes, box_failures = _quarter_grid_boxes()
        for scenario, box in boxes:
            build_adversarial_measure(scenario, box, 1.0, 2_000, seed=0)
        assert len(boxes) + box_failures == 8_154  # every violating orbit representative
        assert box_failures <= 68

    def test_bump_gap_is_exactly_positive_on_quarter_grid_boxes(self):
        # The premise behind the bump pair at the box midpoint, of scale
        # delta / 6: its exact gap g_b is positive.  Off ties g(-X) = g(X),
        # so the + half has the pair's gap; every 8th box keeps this fast.
        # A box no wider than tau sits on a witness within tau of a zero
        # hyperplane (ROADMAP item 13), and its bump is finer than the
        # rounding of its centre, which no float integral resolves: there
        # are 86 such boxes, and they may only fall.
        boxes, _ = _quarter_grid_boxes()
        wide = [(scenario, box) for scenario, box in boxes if box.delta > SLACK]
        assert len(boxes) - len(wide) <= 86
        for scenario, box in wide[::8]:
            assert component_gap(scenario, box.midpoint().values, box.delta / 6.0) > 0.0
