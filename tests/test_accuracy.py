"""Inaccuracy scores and the expected-gap identity, against quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deference_lab import (
    Gamble,
    MeasureSpec,
    ProbMass,
    Scenario,
    ValidationError,
    check_global_trust,
    expected_gap,
    inaccuracy_mc,
    accuracy,
    rhs_identity,
    sampling,
)
from oracles import (
    QUARTER_ROWS,
    ErrorKind,
    coarse_trusting_scenario,
    coarse_zero_mass_scenario,
    component_gap,
    component_inaccuracy,
    dyadic_mass,
    error_class,
    exact_gap,
    exact_inaccuracy,
    guarded_identity_values,
    informed_zero_mass_scenario,
    is_almost_desirable,
    measure_gap,
    measure_inaccuracy,
    quarter_grid_orbits,
    quarter_rows,
    random_measure,
    random_scenario,
    signed_zero_rows,
    stacked_acceptance,
    tie_rows,
    trusting_scenario,
    wedge_gap,
    wedge_inaccuracy,
    wide_scenario_rows,
    zero_mass_suite,
)

GAUSS = MeasureSpec.gaussian(1.0)

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0**-53


@pytest.fixture
def integrands(monkeypatch) -> list:
    """The value functions the estimators hand to ``mc_estimate``, in order."""
    captured = []
    original = accuracy.mc_estimate

    def capturing(draw, values, samples, seed):
        captured.append(values)
        return original(draw, values, samples, seed)

    monkeypatch.setattr(accuracy, "mc_estimate", capturing)
    return captured


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

    @pytest.mark.parametrize("i", [-1, 2])
    def test_rejects_world_index_out_of_range(self, i):
        with pytest.raises(ValidationError, match=f"world index {i} out of range for n=2"):
            inaccuracy_mc(ProbMass([0.5, 0.5]), i, GAUSS, 10, seed=0)

    def test_confidence_shrinks_the_score(self):
        # A mass more confident of world 1 errs there on a smaller region.
        confident = inaccuracy_mc(ProbMass([0.9, 0.1]), 0, GAUSS, 100_000, seed=5)
        spread = inaccuracy_mc(ProbMass([0.5, 0.5]), 0, GAUSS, 100_000, seed=5)
        assert confident.value < spread.value
        assert FROZEN_SCORES[((0.9, 0.1), 0)] < FROZEN_SCORES[((0.5, 0.5), 0)]

    def test_deterministic(self, monkeypatch):
        p = ProbMass([0.3, 0.7])
        a = inaccuracy_mc(p, 0, GAUSS, 50_000, seed=9)
        monkeypatch.setattr(sampling, "_memo", None)  # a fresh draw, not the memo
        b = inaccuracy_mc(p, 0, GAUSS, 50_000, seed=9)
        assert a == b
        assert inaccuracy_mc(p, 0, GAUSS, 50_000, seed=10) != a

    def test_integrand_matches_error_class_row_by_row(self, integrands):
        # Quarter masses and quarter rows: each row's value must be |x_i|
        # where the scalar classifier finds an error, +0.0 elsewhere.
        rng = np.random.default_rng(41)
        ties = 0
        for n in range(2, 7):
            for _ in range(8):
                p = ProbMass(dyadic_mass(rng, n, 4))
                xs = np.vstack([quarter_rows(rng, 300, n), tie_rows(p.weights)])
                ties += int(np.sum((xs @ p.weights == 0.0) & np.any(xs != 0.0, axis=1)))
                for i in range(n):
                    inaccuracy_mc(p, i, GAUSS, 1, seed=0)
                    got = [v.hex() for v in integrands[-1](xs).tolist()]
                    expected = [
                        abs(float(row[i])) if error_class(p, i, Gamble(row)) is not ErrorKind.NONE
                        else 0.0
                        for row in xs
                    ]
                    assert got == [v.hex() for v in expected], (n, i, p)
        assert ties > 100


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


    def test_integrand_matches_the_per_world_loop(self, integrands):
        # The per-world sum of the docstring, added world by world from 0.0.
        def per_world(scenario, xs):
            expert_accepts, agent_value = stacked_acceptance(scenario, xs)
            agent_accepts = agent_value >= 0.0
            total = np.zeros(len(xs))
            for i, weight in enumerate(scenario.agent.weights):
                if weight == 0.0:
                    continue
                payoff = xs[:, i]
                gains = payoff >= 0.0
                expert_errs = (expert_accepts[:, i] != gains).astype(float)
                agent_errs = (agent_accepts != gains).astype(float)
                total += weight * np.abs(payoff) * (expert_errs - agent_errs)
            return total

        rng = np.random.default_rng(31)
        for scenario in (random_scenario(rng, 6), coarse_zero_mass_scenario(rng, 6)):
            expected_gap(scenario, GAUSS, 1, 0)
            xs = rng.standard_normal((3_000, 6))
            xs[::7, 2] = 0.0
            xs[::5, 0] = -0.0
            xs[::11] = 0.0
            got = [v.hex() for v in integrands[-1](xs).tolist()]
            assert got == [v.hex() for v in per_world(scenario, xs).tolist()]
        # Zero-mass worlds add a signed zero to a total that starts at +0.0.
        cases = zero_mass_suite(np.random.default_rng(67))
        for scenario, xs in [*cases, wide_scenario_rows(np.random.default_rng(73))]:
            expected_gap(scenario, GAUSS, 1, 0)
            got = integrands[-1](xs)
            assert np.array_equal(got.view(np.int64), per_world(scenario, xs).view(np.int64))


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

    def test_integrand_matches_the_guarded_form(self, integrands):
        # On an event of zero agent mass every product pi_i x_i is +-0, so
        # the dropped guards pi(A) > 0 and pi(A^c) > 0 only chose between
        # z * 0.0 and z * 1.0 for a signed zero z: the same bits.
        for scenario, xs in zero_mass_suite(np.random.default_rng(59)):
            rhs_identity(scenario, GAUSS, 1, seed=0)
            got = integrands[-1](xs)
            expected = guarded_identity_values(scenario, xs)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), scenario

    def test_thread_invariance(self, anti_expert, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        serial = rhs_identity(anti_expert, GAUSS, 150_000, seed=4)
        monkeypatch.setenv("DEFLAB_THREADS", "4")
        monkeypatch.setattr(sampling, "_memo", None)  # a fresh draw, not the memo
        threaded = rhs_identity(anti_expert, GAUSS, 150_000, seed=4)
        assert serial == threaded

    def test_gap_and_identity_agree_row_by_row(self, integrands):
        # On every row g and h add the same rounded products pi_i x_i (the
        # others are exact zeros): g in a loop over the worlds, h in a BLAS
        # dot.  Either order errs from the exact sum by at most
        # gamma_n sum|pi_i x_i|, gamma_n = n u / (1 - n u), so g and h differ
        # by at most twice that.  The computed pi.|X| is at least
        # (1 - gamma_n) sum|pi_i x_i|, which the bound divides out.
        rng = np.random.default_rng(97)

        def dyadic_scenario(rng, n):
            return Scenario.from_weights(
                dyadic_mass(rng, n, 16), [dyadic_mass(rng, n, 16) for _ in range(n)]
            )

        families = (
            random_scenario,
            trusting_scenario,
            coarse_trusting_scenario,
            coarse_zero_mass_scenario,
            dyadic_scenario,
        )
        agent_ties = expert_ties = differing = 0
        for n in range(3, 10):
            gamma = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)
            for make in families:
                for _ in range(2):
                    scenario = make(rng, n)
                    pi = scenario.agent.weights
                    if make is dyadic_scenario:
                        xs = np.vstack([quarter_rows(rng, 2_000, n), tie_rows(pi)])
                        live = np.any(xs != 0.0, axis=1)
                        agent_ties += int(np.sum((xs @ pi == 0.0) & live))
                        rows_zero = xs @ scenario.expert_matrix().T == 0.0
                        expert_ties += int(np.sum(rows_zero.any(axis=1) & live))
                    else:
                        xs = signed_zero_rows(rng, 2_000, n)
                    expected_gap(scenario, GAUSS, 1, seed=0)
                    rhs_identity(scenario, GAUSS, 1, seed=0)
                    g, h = (values(xs) for values in integrands[-2:])
                    bound = 2.0 * gamma / (1.0 - gamma) * (np.abs(xs) @ pi)
                    assert np.all(np.abs(g - h) <= bound), (make.__name__, n)
                    differing += int(np.sum(g != h))
        assert agent_ties > 100 and expert_ties > 100
        assert differing > 0  # the two routes do round differently


class TestExactGaussian:
    """The centred-Gaussian closed forms of the oracles, for any n."""

    def test_closed_forms_match_two_world_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(2))
            for i in range(2):
                assert abs(exact_inaccuracy(p, i) - wedge_inaccuracy(p, i)) <= 1e-15
            scenario = random_scenario(rng, 2)
            assert abs(exact_gap(scenario) - wedge_gap(scenario)) <= 1e-15

    def test_gap_and_identity_sit_within_five_se(self):
        rng = np.random.default_rng(19)
        for k in range(22):
            n = 3 + k % 6
            make = random_scenario if k % 2 else trusting_scenario
            scenario = make(rng, n)
            exact = exact_gap(scenario)
            for estimator in (expected_gap, rhs_identity):
                estimate = estimator(scenario, GAUSS, 100_000, seed=k)
                assert abs(estimate.value - exact) <= 5 * estimate.std_error, (k, estimator)

    def test_inaccuracy_sits_within_five_se(self):
        rng = np.random.default_rng(23)
        for k in range(30):
            n = 3 + k % 6
            p = ProbMass(rng.dirichlet(np.ones(n)))
            i = int(rng.integers(0, n))
            estimate = inaccuracy_mc(p, i, GAUSS, 100_000, seed=k)
            exact = exact_inaccuracy(p.weights, i)
            assert abs(estimate.value - exact) <= 5 * estimate.std_error, (k, n, i)

    def test_exact_gap_never_positive_under_trust(self):
        # The theorem's "if" half, with no sampling.
        rng = np.random.default_rng(29)
        families = (
            trusting_scenario,
            coarse_trusting_scenario,
            coarse_zero_mass_scenario,
            informed_zero_mass_scenario,
        )
        for k in range(40):
            scenario = families[k % 4](rng, 3 + k % 7)
            assert check_global_trust(scenario).holds
            assert exact_gap(scenario) <= 0.0, k

    def test_exact_gap_on_the_quarter_grid(self):
        # The "if" half on every orbit representative of the n = 3 quarter
        # grid.  Where trust fails, the plain Gaussian's gap is positive on
        # 7,175 of 8,154 representatives; the rest need the bump measure.
        orbits = quarter_grid_orbits()
        holding = positive = 0
        for key, _ in orbits:
            agent, *expert = (QUARTER_ROWS[k] for k in key)
            scenario = Scenario.from_weights(agent, expert)
            gap = exact_gap(scenario)
            if check_global_trust(scenario).holds:
                holding += 1
                assert gap <= 0.0, key
            else:
                positive += gap > 0.0
        assert (len(orbits), holding, positive) == (8_505, 351, 7_175)


class TestExactMixture:
    """One Gaussian component N(m, s^2 I) by quadrature, so any MeasureSpec."""

    def test_component_matches_closed_form_at_zero_mean(self):
        rng = np.random.default_rng(31)
        for k in range(30):
            n = 2 + k % 7
            sigma = float(rng.uniform(0.2, 3.0))
            p = rng.dirichlet(np.ones(n))
            i = int(rng.integers(0, n))
            got = component_inaccuracy(p, i, np.zeros(n), sigma)
            assert abs(got - exact_inaccuracy(p, i, sigma)) <= 1e-12, (k, n, i)
            scenario = random_scenario(rng, n)
            got = measure_gap(scenario, MeasureSpec.gaussian(sigma))
            assert abs(got - exact_gap(scenario, sigma)) <= 1e-12, (k, n)

    def test_gap_and_inaccuracy_sit_within_five_se_on_mixtures(self):
        rng = np.random.default_rng(37)
        for k in range(12):
            n = 3 + k % 6
            make = random_scenario if k % 2 else trusting_scenario
            scenario, mu = make(rng, n), random_measure(rng, n)
            estimate = expected_gap(scenario, mu, 100_000, seed=k)
            exact = measure_gap(scenario, mu)
            assert abs(estimate.value - exact) <= 5 * estimate.std_error, (k, n)
            i = int(rng.integers(0, n))
            estimate = inaccuracy_mc(scenario.agent, i, mu, 100_000, seed=k)
            exact = measure_inaccuracy(scenario.agent.weights, i, mu)
            assert abs(estimate.value - exact) <= 5 * estimate.std_error, (k, n, i)

    def test_symmetric_bump_pairs_never_raise_the_gap_under_trust(self):
        # Each inaccuracy is at most E|X_i| <= |m_i| + s, and each quadrature
        # is asked for 1e-13 relative accuracy, so a gap that is 0 in exact
        # arithmetic (rows equal up to rounding) lands within the slack.
        rng = np.random.default_rng(41)
        families = (
            trusting_scenario,
            coarse_trusting_scenario,
            coarse_zero_mass_scenario,
            informed_zero_mass_scenario,
        )
        negative = 0
        for k in range(30):
            scenario = families[k % 4](rng, 3 + k % 6)
            assert check_global_trust(scenario).holds
            for _ in range(4):
                center = rng.normal(0.0, 2.0, scenario.n)
                scale = float(rng.uniform(0.05, 1.0))
                gap = 0.5 * (
                    component_gap(scenario, center, scale) + component_gap(scenario, -center, scale)
                )
                assert gap <= 1e-12 * (np.abs(center).max() + scale), (k, gap)
                negative += gap < 0.0
        assert negative >= 90


def test_measure_of_another_dimension_raises_before_drawing(anti_expert, monkeypatch):
    # The measure's own components check rejects it, before any chunk draws.
    drawn: list[int] = []
    original = sampling.chunk_rng

    def counted(seed: int, chunk_index: int) -> np.random.Generator:
        drawn.append(chunk_index)
        return original(seed, chunk_index)

    monkeypatch.setattr(sampling, "chunk_rng", counted)
    mu = random_measure(np.random.default_rng(0), 3)
    for estimate in (
        lambda: expected_gap(anti_expert, mu, 1_000, seed=0),
        lambda: rhs_identity(anti_expert, mu, 1_000, seed=0),
        lambda: inaccuracy_mc(anti_expert.agent, 0, mu, 1_000, seed=0),
    ):
        with pytest.raises(ValidationError, match="3-dimensional, asked to sample in 2"):
            estimate()
    assert drawn == []
