"""Open violation boxes: margins, bounds, and the uniform-violation contract."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from deference_lab import (
    Gamble,
    Orientation,
    Scenario,
    ValidationError,
    build_positive_box,
    build_violation_box,
    check_global_trust,
    check_local_trust,
    expectation,
)
from oracles import dyadic_mass, guarded_identity_values, random_scenario

TOL = 1e-12


def _wide_event_scenario() -> tuple[Scenario, Gamble]:
    """A witness whose acceptance event is the whole space (margin infinite)."""
    scenario = Scenario.from_weights(
        [0.98, 0.01, 0.01],
        [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
    )
    return scenario, Gamble([-1.0, 1.0, 1.0])


def _hyperplane_scenario() -> Scenario:
    """Expert i is certain of world 4 - i, so P_2(X) = x_2."""
    return Scenario.from_weights(
        [1 / 3, 1 / 3, 1 / 3],
        [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
    )


class TestMargins:
    """lambda and xi as the box carries them: ``value_margin``, ``event_margin``."""

    def test_anti_expert_unit_witness(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        assert box.value_margin == 1.0
        assert box.event_margin == 1.0

    def test_value_margin_is_negated_conditional(self, anti_expert):
        # Conditional value -0.25 on the acceptance event {w2}.
        assert build_violation_box(anti_expert, Gamble([1.0, -0.25])).value_margin == 0.25

    def test_half_scale_witness(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([0.5, -0.5]))
        assert box.value_margin == 0.5
        assert box.event_margin == 0.5

    def test_event_margin_with_looser_witness(self, anti_expert):
        # P_1(X) = -1 is the only excluded prevision: margin 1.
        assert build_violation_box(anti_expert, Gamble([2.0, -1.0])).event_margin == 1.0

    def test_event_margin_infinite_when_everything_accepts(self):
        scenario, x = _wide_event_scenario()
        assert build_violation_box(scenario, x).event_margin == math.inf

    def test_margins_reject_non_witnesses(self, truth_expert):
        with pytest.raises(ValidationError, match="not a trust violation witness"):
            build_violation_box(truth_expert, Gamble([1.0, 1.0]))


class TestViolationBox:
    def test_anti_expert_unit_box(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        assert box.delta == 1.0
        assert box.lower.tolist() == [1.0, -1.0]
        assert box.upper.tolist() == [2.0, 0.0]
        assert box.orientation is Orientation.NEGATIVE_SIDE
        assert box.event.sorted_members() == [1]
        # The zero hyperplanes of both experts avoid the open box entirely:
        # P_1 vanishes on {y_2 = 0}, P_2 on {y_1 = 0}.
        assert 0.0 not in box.midpoint().values

    def test_half_scale_box(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([0.5, -0.5]))
        assert box.delta == 0.5
        assert box.lower.tolist() == [0.5, -0.5]
        assert box.upper.tolist() == [1.0, 0.0]

    def test_rejects_trusted_gamble(self, truth_expert):
        with pytest.raises(ValidationError, match="not a trust violation witness"):
            build_violation_box(truth_expert, Gamble([1.0, 1.0]))

    def test_interior_points_all_fail_local_trust(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        rng = np.random.default_rng(0)
        points = box.sample_interior(rng, 1_000)
        for point in points:
            assert not check_local_trust(anti_expert, Gamble(point)).holds

    def test_membership_excludes_hyperplanes_and_exterior(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        assert box.contains(Gamble([1.5, -0.5]))
        assert not box.contains(Gamble([1.5, 0.0]))  # on a zero hyperplane... and a face
        assert not box.contains(Gamble([1.5, -1.5]))  # outside
        assert not box.contains(Gamble([1.0, -0.5]))  # on an open face

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"delta": 0.0}, "box width must be positive and finite, got 0.0"),
            ({"value_margin": 0.5}, "box width exceeds the margins that justify it"),
            # 1e17 + delta rounds back to 1e17: no width in that coordinate.
            ({"base": Gamble([1e17, -1.0])}, "box must be nonempty and open in every"),
        ],
    )
    def test_construction_checks(self, anti_expert, change, message):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        with pytest.raises(ValidationError, match=message):
            dataclasses.replace(box, **change)

    @pytest.mark.parametrize(
        "x",
        [[1e308, -1e308], [1e308, -7e307]],
        ids=["upper-overflows", "midpoint-overflows"],
    )
    def test_rejects_bounds_past_float_range(self, anti_expert, x):
        # delta = 1e308 carries the upper bound past the largest float; at
        # delta = 7e307 the bounds are finite but their midpoint sum is not.
        with pytest.raises(ValidationError, match="box bounds and midpoint must stay within"):
            build_violation_box(anti_expert, Gamble(x))

    def test_width_is_smaller_margin_across_zero_prevision(self, anti_expert):
        # pi(X) = -0.25 and both margins are 0.75: the box is that wide,
        # straddles pi(Y) = 0, and the integrand h stays positive on it.
        x = Gamble([0.25, -0.75])
        box = build_violation_box(anti_expert, x)
        assert box.delta == 0.75
        points = box.sample_interior(np.random.default_rng(1), 2_000)
        agent_values = points @ anti_expert.agent.weights
        assert agent_values.min() < 0.0 < agent_values.max()
        _negative_side_properties(anti_expert, box)

    def test_quarter_grid_witness_near_zero_prevision(self):
        # Grid key (1, 0, 5, 13): pi(X) rounds to a sliver below zero, and
        # the box is still min(lambda, xi) wide.
        scenario = Scenario.from_weights(
            [0.0, 0.25, 0.75],
            [[0.0, 0.0, 1.0], [0.25, 0.0, 0.75], [0.75, 0.25, 0.0]],
        )
        box = build_violation_box(scenario, check_global_trust(scenario).witness)
        assert box.delta == min(box.value_margin, box.event_margin) == 0.24999999999999975
        _negative_side_properties(scenario, box)

    def test_infinite_event_margin_box(self):
        scenario, x = _wide_event_scenario()
        box = build_violation_box(scenario, x)
        assert box.event_margin == math.inf
        assert box.delta == pytest.approx(0.96, abs=TOL)

    def test_positive_volume(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        assert box.delta**box.n > 0.0


def _negative_side_properties(scenario, box, samples=10_000, seed=2):
    """Orientation inequality, event constancy, hyperplane exclusion."""
    points = box.sample_interior(np.random.default_rng(seed), samples)
    previsions = points @ scenario.expert_matrix().T
    assert np.all(previsions != 0.0)
    accepted = previsions >= 0.0
    members = np.zeros(scenario.n, dtype=bool)
    members[box.event.sorted_members()] = True
    assert np.all(accepted == members)
    pi = scenario.agent.weights
    prob = float(members @ pi)
    assert prob > 0.0
    assert np.all((points * members) @ pi < 0.0)
    _integrand_positive(scenario, points)


def _positive_side_properties(scenario, box, samples=10_000, seed=3):
    points = box.sample_interior(np.random.default_rng(seed), samples)
    previsions = points @ scenario.expert_matrix().T
    assert np.all(previsions != 0.0)
    rejected = previsions < 0.0
    members = np.zeros(scenario.n, dtype=bool)
    members[box.event.sorted_members()] = True
    assert np.all(rejected == members)
    pi = scenario.agent.weights
    assert float(members @ pi) > 0.0
    assert np.all((points * members) @ pi > 0.0)
    _integrand_positive(scenario, points)


def _integrand_positive(scenario, points):
    """The gap identity's integrand h > 0 on the points and their negations."""
    assert np.all(guarded_identity_values(scenario, points) > 0.0)
    assert np.all(guarded_identity_values(scenario, -points) > 0.0)


def _positive_global_witnesses(seed, count):
    """Random scenarios whose global witness has pi(X) > 0."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        scenario = random_scenario(rng, int(rng.integers(2, 5)))
        verdict = check_global_trust(scenario)
        if not verdict.holds and expectation(scenario.agent, verdict.witness) > 0.0:
            found.append((scenario, verdict.witness))
    return found


def _exact_dot(weights, values):
    return sum(Fraction(w) * Fraction(v) for w, v in zip(weights, values))


def _exact_integrand(pi, rows, z):
    """The gap identity's integrand h(Z), in exact rationals."""
    accepted = [_exact_dot(row, z) >= 0 for row in rows]
    if _exact_dot(pi, z) < 0:
        return -sum(p * v for p, v, a in zip(pi, z, accepted) if a)
    return sum(p * v for p, v, a in zip(pi, z, accepted) if not a)


class TestBoxInvariants:
    def test_negative_boxes_on_random_violations(self):
        rng = np.random.default_rng(10)
        built = 0
        while built < 12:
            scenario = random_scenario(rng, int(rng.integers(2, 5)))
            x = Gamble(rng.standard_normal(scenario.n))
            verdict = check_local_trust(scenario, x)
            if verdict.holds:
                continue
            box = build_violation_box(scenario, verdict.witness)
            _negative_side_properties(scenario, box, samples=2_000, seed=built)
            built += 1

    def test_anti_expert_box_event_constancy(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        _negative_side_properties(anti_expert, box)


class TestBoxBits:
    """Every bound a box reports, pinned bit for bit.

    One SHA-256 over ``lower``, ``upper``, ``midpoint()`` and ``delta`` of
    the negative boxes on the global witnesses of 40 violating random
    scenarios per n = 2..6, and of the positive boxes on 40 global
    witnesses with pi(X) > 0.  Raw bytes, so the sign of a zero counts.
    """

    DIGEST = "80ab2efb2e5b012cbac9c7f2d34612c411d8ecb7742e8ca3027189503e780a77"

    @staticmethod
    def _feed(digest, box):
        for bounds in (box.lower, box.upper, box.midpoint().values):
            digest.update(np.ascontiguousarray(bounds, dtype=float).tobytes())
        digest.update(float(box.delta).hex().encode())

    def test_box_digest(self):
        digest = hashlib.sha256()
        for n in range(2, 7):
            rng = np.random.default_rng(100 + n)
            built = 0
            while built < 40:
                scenario = random_scenario(rng, n)
                verdict = check_global_trust(scenario)
                if verdict.holds:
                    continue
                self._feed(digest, build_violation_box(scenario, verdict.witness))
                built += 1
        for scenario, witness in _positive_global_witnesses(seed=13, count=40):
            self._feed(digest, build_positive_box(scenario, witness))
        assert digest.hexdigest() == self.DIGEST


class TestPositiveBox:
    def test_anti_expert_worked_example(self, anti_expert):
        # X = (-0.2, 1): rejection event {w2}, conditional there 1 > 0,
        # and the accepting expert's P_1(X) = 1: both margins are 1, and
        # pi(X) = 0.4 caps nothing, so the box straddles pi(Y) = 0.
        x = Gamble([-0.2, 1.0])
        box = build_positive_box(anti_expert, x)
        assert box.orientation is Orientation.POSITIVE_SIDE
        assert box.event.sorted_members() == [1]
        assert box.delta == 1.0
        assert box.upper.tolist() == [-0.2, 1.0]
        assert box.lower.tolist() == [-1.2, 0.0]
        _positive_side_properties(anti_expert, box)
        points = box.sample_interior(np.random.default_rng(4), 5_000)
        agent_values = points @ anti_expert.agent.weights
        assert agent_values.min() < 0.0 < agent_values.max()

    def test_negative_prevision_witness_is_mirrored(self, anti_expert):
        # pi(X) = -0.25: the box needs no sign of pi(X).  -X = (1, -0.5)
        # has event {w2} and conditional -0.5, and P_1(-X) = -0.5.
        box = build_positive_box(anti_expert, Gamble([-1.0, 0.5]))
        assert box == build_violation_box(anti_expert, Gamble([1.0, -0.5])).mirrored()
        assert box.event.sorted_members() == [1]
        assert box.lower.tolist() == [-1.5, 0.0]
        assert box.upper.tolist() == [-1.0, 0.5]
        _positive_side_properties(anti_expert, box)

    def test_rejects_empty_rejection_event(self, truth_expert):
        with pytest.raises(
            ValidationError, match=r"not a trust violation witness: .* is undefined on event \[\]"
        ):
            build_positive_box(truth_expert, Gamble([1.0, 1.0]))

    def test_rejects_nonpositive_conditional(self, truth_expert):
        # S*: rejection event of (2, -1) is {w2} with conditional -1 < 0.
        with pytest.raises(
            ValidationError, match=r"not a trust violation witness: .* is 1\.0 on event \[1\]"
        ):
            build_positive_box(truth_expert, Gamble([2.0, -1.0]))

    def test_zero_prevision_witness_is_mirrored(self, anti_expert):
        # pi(X) = 0: both margins of -X = (1, -1) are 1.
        box = build_positive_box(anti_expert, Gamble([-1.0, 1.0]))
        assert box == build_violation_box(anti_expert, Gamble([1.0, -1.0])).mirrored()
        assert box.event.sorted_members() == [1]
        assert box.delta == 1.0
        assert box.lower.tolist() == [-2.0, 0.0]
        _positive_side_properties(anti_expert, box)

    def test_on_hyperplane_witness_is_mirrored(self):
        # P_2(X) = x_2 = 0: expert 2 accepts X, a corner the open box
        # excludes, and rejects every Y inside, where y_2 < 0.  So the
        # event is [P(X) <= 0] = {w2, w3}, with conditional 1 > 0.
        scenario = _hyperplane_scenario()
        box = build_positive_box(scenario, Gamble([-1.0, 0.0, 2.0]))
        assert box == build_violation_box(scenario, Gamble([1.0, -0.0, -2.0])).mirrored()
        assert box.event.sorted_members() == [1, 2]
        assert box.delta == 1.0
        assert box.lower.tolist() == [-2.0, -1.0, 1.0]
        _positive_side_properties(scenario, box)

    def test_zero_lower_bound_is_positive_zero(self):
        # Every expert rejects (P_i(X) = x_1 = -1), so B is the whole space
        # and delta = pi(X) = 0.5 = x_2: that lower bound is exactly +0.0.
        scenario = Scenario.from_weights([1 / 3, 1 / 3, 1 / 3], [[1.0, 0.0, 0.0]] * 3)
        box = build_positive_box(scenario, Gamble([-1.0, 0.5, 2.0]))
        assert box.lower.tolist() == [-1.5, 0.0, 1.5]
        assert not np.signbit(box.lower[1])

    def test_positive_boxes_on_random_global_witnesses(self):
        for scenario, witness in _positive_global_witnesses(seed=11, count=12):
            box = build_positive_box(scenario, witness)
            assert box.delta == min(box.value_margin, box.event_margin)
            _positive_side_properties(scenario, box, samples=2_000)

    def test_mirror_proof_in_exact_arithmetic(self):
        # Quarter masses and gambles in halves keep every prevision exact.
        # Boxes whose X has pi(X) <= 0 or a zero prevision rely on the
        # mirror proof alone; at rational interior points Y their event is
        # Y's rejection event, no P_i(Y) is 0, pi(Y 1_B) > 0 and h > 0.
        rng = np.random.default_rng(2026)
        seen = {"nonpositive": 0, "zero_prevision": 0}
        for _ in range(2_000):
            n = int(rng.integers(2, 6))
            scenario = Scenario.from_weights(
                dyadic_mass(rng, n, 4), [dyadic_mass(rng, n, 4) for _ in range(n)]
            )
            x = Gamble(rng.integers(-4, 5, size=n) / 2.0)
            try:
                box = build_positive_box(scenario, x)
            except ValidationError:
                continue
            pi = [Fraction(w) for w in scenario.agent.weights.tolist()]
            rows = [[Fraction(e) for e in row] for row in scenario.expert_matrix().tolist()]
            values = x.values.tolist()
            nonpositive = _exact_dot(pi, values) <= 0
            zero_prevision = any(_exact_dot(row, values) == 0 for row in rows)
            if not (nonpositive or zero_prevision):
                continue
            seen["nonpositive"] += nonpositive
            seen["zero_prevision"] += zero_prevision
            members = set(box.event.sorted_members())
            lower = [Fraction(v) for v in box.lower.tolist()]
            upper = [Fraction(v) for v in box.upper.tolist()]
            for steps in rng.integers(1, 13, size=(12, n)).tolist():
                y = [lo + Fraction(k, 13) * (hi - lo) for lo, hi, k in zip(lower, upper, steps)]
                previsions = [_exact_dot(row, y) for row in rows]
                assert 0 not in previsions
                assert {i for i, p in enumerate(previsions) if p < 0} == members
                assert sum(pi[j] * y[j] for j in members) > 0
                assert _exact_integrand(pi, rows, y) > 0
                assert _exact_integrand(pi, rows, [-v for v in y]) > 0
        assert min(seen.values()) >= 50, seen

    def test_mirror_identity(self):
        for scenario, witness in _positive_global_witnesses(seed=12, count=12):
            box = build_positive_box(scenario, witness)
            mirror = build_violation_box(scenario, -witness).mirrored()
            assert box.event == mirror.event
            assert box.value_margin == mirror.value_margin
            assert box.event_margin == mirror.event_margin
            assert box.delta == mirror.delta
            assert box.orientation is mirror.orientation
            # Equal as numbers; only the sign of a zero bound may differ.
            assert np.array_equal(box.lower, mirror.lower)
            assert np.array_equal(box.upper, mirror.upper)


class TestMirroredBox:
    def test_bounds_negate_and_swap(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        mirror = box.mirrored()
        assert mirror.lower.tolist() == [-2.0, 0.0]
        assert mirror.upper.tolist() == [-1.0, 1.0]
        assert mirror.orientation is Orientation.POSITIVE_SIDE
        assert mirror.event == box.event

    def test_mirror_of_negative_box_is_positive_side(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([0.25, -0.75]))
        _positive_side_properties(anti_expert, box.mirrored())

    def test_double_mirror_is_identity(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        back = box.mirrored().mirrored()
        assert back == box
        assert back.lower.tolist() == box.lower.tolist()
        assert back.upper.tolist() == box.upper.tolist()
        assert back.orientation is box.orientation

    def test_boxes_from_one_witness_compare_equal(self, anti_expert):
        box = build_violation_box(anti_expert, Gamble([0.25, -0.75]))
        assert box == build_violation_box(anti_expert, Gamble([0.25, -0.75]))
        assert box != build_violation_box(anti_expert, Gamble([1.0, -1.0]))
        assert box != box.mirrored()
