"""Inaccuracy scores and the expected-gap identity, against quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deference_lab import (
    ErrorKind,
    Gamble,
    MeasureSpec,
    ProbMass,
    check_global_trust,
    error_class,
    expected_gap,
    inaccuracy_mc,
    is_almost_desirable,
    rhs_identity,
)
from oracles import (
    coarse_trusting_scenario,
    random_measure,
    random_scenario,
    trusting_scenario,
    wedge_inaccuracy,
)

GAUSS = MeasureSpec.gaussian(1.0)

# Frozen angular-quadrature values (see oracles.wedge_inaccuracy); the
# self-check test below recomputes them from the oracle.
FROZEN_SCORES = {
    ((0.5, 0.5), 0): 0.11684748862755455,
    ((0.9, 0.1), 0): 0.002440036836846682,
    ((0.25, 0.75), 1): 0.02047240209840868,
    ((0.6, 0.4), 1): 0.1776489191802176,
    ((0.15, 0.85), 0): 0.3296119629914328,
}
TRUTH_EXPERT_GAP = -0.11684748862755459


def test_frozen_values_match_oracle():
    for (p, i), frozen in FROZEN_SCORES.items():
        assert wedge_inaccuracy(p, i) == pytest.approx(frozen, rel=1e-10)


class TestDesirability:
    def test_boundary_is_desirable(self):
        assert is_almost_desirable(ProbMass([0.5, 0.5]), Gamble([1.0, -1.0]))

    def test_point_mass_reads_its_world(self):
        assert not is_almost_desirable(ProbMass([1.0, 0.0]), Gamble([-1.0, 100.0]))

    def test_zero_gamble_is_desirable(self):
        for p in (ProbMass([0.2, 0.8]), ProbMass([1.0, 0.0])):
            assert is_almost_desirable(p, Gamble([0.0, 0.0]))


class TestErrorClass:
    def test_rejecting_a_keeper_is_type2(self):
        # p(X) = -0.5 rejects, yet x_1 = 1 >= 0.
        assert error_class(ProbMass([0.5, 0.5]), 0, Gamble([1.0, -2.0])) is ErrorKind.TYPE2

    def test_agreeing_rejections_are_no_error(self):
        assert error_class(ProbMass([0.5, 0.5]), 1, Gamble([1.0, -2.0])) is ErrorKind.NONE

    def test_accepting_a_loser_is_type1(self):
        # p(X) = 0.55 accepts, yet x_2 = -2 < 0.
        assert error_class(ProbMass([0.85, 0.15]), 1, Gamble([1.0, -2.0])) is ErrorKind.TYPE1

    def test_ideal_mass_never_errs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            i = int(rng.integers(0, n))
            x = Gamble(rng.standard_normal(n))
            assert error_class(ProbMass.ideal(n, i), i, x) is ErrorKind.NONE

    @given(st.data())
    @settings(max_examples=150)
    def test_errors_are_exactly_desirability_disagreements(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        raw = data.draw(
            st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)
        )
        p = ProbMass(np.asarray(raw) / np.sum(raw))
        values = data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        x = Gamble(np.asarray(values))
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        kind = error_class(p, i, x)
        disagrees = is_almost_desirable(p, x) != is_almost_desirable(ProbMass.ideal(n, i), x)
        assert (kind is not ErrorKind.NONE) == disagrees


class TestInaccuracyMc:
    def test_ideal_mass_scores_exactly_zero(self):
        for n, i in ((2, 0), (3, 2), (5, 1)):
            estimate = inaccuracy_mc(ProbMass.ideal(n, i), i, GAUSS, 10_000, seed=0)
            assert estimate.value == 0.0
            assert estimate.std_error == 0.0

    @pytest.mark.parametrize("p,i", list(FROZEN_SCORES))
    def test_matches_quadrature(self, p, i):
        estimate = inaccuracy_mc(ProbMass(list(p)), i, GAUSS, 200_000, seed=11)
        assert abs(estimate.value - FROZEN_SCORES[(p, i)]) <= 3 * estimate.std_error

    def test_confidence_shrinks_the_score(self):
        # A mass more confident of world 1 errs there on a smaller region.
        confident = inaccuracy_mc(ProbMass([0.9, 0.1]), 0, GAUSS, 100_000, seed=5)
        spread = inaccuracy_mc(ProbMass([0.5, 0.5]), 0, GAUSS, 100_000, seed=5)
        assert confident.value < spread.value
        assert FROZEN_SCORES[((0.9, 0.1), 0)] < FROZEN_SCORES[((0.5, 0.5), 0)]

    def test_deterministic(self):
        p = ProbMass([0.3, 0.7])
        a = inaccuracy_mc(p, 0, GAUSS, 50_000, seed=9)
        b = inaccuracy_mc(p, 0, GAUSS, 50_000, seed=9)
        assert a == b
        assert inaccuracy_mc(p, 0, GAUSS, 50_000, seed=10) != a


class TestExpectedGap:
    def test_agent_as_expert_contributes_nothing(self, agent_expert):
        estimate = expected_gap(agent_expert, GAUSS, 50_000, seed=0)
        assert estimate.value == 0.0
        assert estimate.std_error == 0.0

    def test_truth_expert_gap_is_minus_agent_inaccuracy(self, truth_expert):
        # Ideal experts score zero, so the gap is the negated agent score.
        estimate = expected_gap(truth_expert, GAUSS, 400_000, seed=1)
        assert estimate.value < 0.0
        assert abs(estimate.value - TRUTH_EXPERT_GAP) <= 3 * estimate.std_error

    def test_anti_expert_gap_strictly_positive(self, anti_expert):
        estimate = expected_gap(anti_expert, GAUSS, 400_000, seed=2)
        assert estimate.value > 5 * estimate.std_error

    def test_trusting_scenarios_never_score_positive(self):
        rng = np.random.default_rng(77)
        for k in range(6):
            scenario = trusting_scenario(rng, int(rng.integers(2, 5)))
            assert check_global_trust(scenario).holds
            for measure in (GAUSS, random_measure(rng, scenario.n)):
                estimate = expected_gap(scenario, measure, 30_000, seed=k)
                assert estimate.value <= 3 * estimate.std_error


class TestRhsIdentity:
    def test_agent_as_expert_is_exactly_zero(self, agent_expert):
        estimate = rhs_identity(agent_expert, GAUSS, 50_000, seed=0)
        assert estimate.value == 0.0
        assert estimate.std_error == 0.0

    @pytest.mark.parametrize("fixture", ["anti_expert", "truth_expert"])
    def test_matches_gap_on_shared_stream(self, fixture, request):
        scenario = request.getfixturevalue(fixture)
        gap = expected_gap(scenario, GAUSS, 200_000, seed=3)
        rhs = rhs_identity(scenario, GAUSS, 200_000, seed=3)
        combined = np.hypot(gap.std_error, rhs.std_error)
        assert abs(gap.value - rhs.value) <= 3 * combined

    def test_identity_on_random_scenarios_and_measures(self):
        rng = np.random.default_rng(123)
        for k in range(12):
            scenario = random_scenario(rng, int(rng.integers(2, 5)))
            measure = random_measure(rng, scenario.n)
            gap = expected_gap(scenario, measure, 40_000, seed=k)
            rhs = rhs_identity(scenario, measure, 40_000, seed=k)
            combined = np.hypot(gap.std_error, rhs.std_error)
            assert abs(gap.value - rhs.value) <= 3 * combined + 1e-12

    def test_trust_bounds_every_sample(self, monkeypatch):
        # Trust applied to X and to -X gives h(X) <= 0 for every gamble, so
        # no sampled value of the integrand is positive, not just the mean.
        from deference_lab import accuracy

        original = accuracy.mc_estimate
        highest: list[float] = []

        def capturing(draw, values, samples, seed):
            def recorded(xs):
                h = values(xs)
                highest.append(float(h.max()))
                return h

            return original(draw, recorded, samples, seed)

        monkeypatch.setattr(accuracy, "mc_estimate", capturing)
        rng = np.random.default_rng(2026)
        checked = 0
        for n in range(2, 9):
            for make in (trusting_scenario, coarse_trusting_scenario):
                for _ in range(4):
                    scenario = make(rng, n)
                    assert check_global_trust(scenario).holds
                    measure = GAUSS if checked % 2 else random_measure(rng, n)
                    highest.clear()
                    rhs_identity(scenario, measure, 20_000, seed=checked)
                    assert highest and max(highest) <= 0.0, (make.__name__, n)
                    checked += 1
        assert checked >= 50

    def test_thread_invariance(self, anti_expert, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        serial = rhs_identity(anti_expert, GAUSS, 150_000, seed=4)
        monkeypatch.setenv("DEFLAB_THREADS", "4")
        threaded = rhs_identity(anti_expert, GAUSS, 150_000, seed=4)
        assert serial == threaded
