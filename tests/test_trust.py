"""Local and global trust decisions, against hand values and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deference_lab import (
    Event,
    Gamble,
    ProbMass,
    Scenario,
    ValidationError,
    WorldSpace,
    check_global_trust,
    check_local_trust,
    conditional_expectation,
    estimate_ae_trust,
    event_probability,
    event_violation_margin,
    expectation,
    expert_event,
)
from oracles import (
    local_sweep_violation_mask,
    lp_margin_scipy,
    random_scenario,
    t0_violation_mask,
    trusting_scenario,
)

TOL = 1e-9


def _suite(count: int, seed: int) -> list[Scenario]:
    """Deterministic mixed suite: every third scenario built to trust."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for k in range(count):
        n = int(rng.integers(2, 5))
        maker = trusting_scenario if k % 3 == 0 else random_scenario
        scenarios.append(maker(rng, n))
    return scenarios


class TestExpertEvent:
    def test_anti_expert(self, anti_expert):
        # P_1(X) = x_2 = -1, P_2(X) = x_1 = 1: only world 2 accepts.
        event = expert_event(anti_expert, Gamble([1.0, -1.0]), 0.0)
        assert event.sorted_members() == [1]

    def test_truth_expert(self, truth_expert):
        event = expert_event(truth_expert, Gamble([2.0, -1.0]), 0.0)
        assert event.sorted_members() == [0]

    def test_constant_gamble_at_its_own_level(self, anti_expert, truth_expert):
        for scenario in (anti_expert, truth_expert):
            for c in (-2.0, 0.0, 3.5):
                event = expert_event(scenario, Gamble([c, c]), c)
                assert event == Event.full(2)

    def test_ties_fall_inside(self, truth_expert):
        event = expert_event(truth_expert, Gamble([0.0, -1.0]), 0.0)
        assert 0 in event


class TestLocalTrust:
    def test_truth_expert_holds(self, truth_expert):
        assert check_local_trust(truth_expert, Gamble([2.0, -1.0])).holds

    def test_anti_expert_violated_with_hand_witness(self, anti_expert):
        verdict = check_local_trust(anti_expert, Gamble([1.0, -1.0]))
        assert not verdict.holds
        assert verdict.witness == Gamble([1.0, -1.0])
        assert verdict.witness_event.sorted_members() == [1]
        assert verdict.witness_value == -1.0

    def test_agent_as_expert_holds_on_nonnegative_previsions(self, agent_expert):
        for x in ([1.0, 0.0], [0.5, -0.1], [-7.0, 3.0]):
            gamble = Gamble(x)
            if not np.dot(agent_expert.agent.weights, x) >= 0:
                continue
            assert check_local_trust(agent_expert, gamble).holds

    def test_witness_satisfies_verdict_contract(self, anti_expert):
        verdict = check_local_trust(anti_expert, Gamble([3.0, -1.0]))
        assert not verdict.holds
        event = expert_event(anti_expert, verdict.witness, 0.0)
        assert event == verdict.witness_event
        value = conditional_expectation(anti_expert.agent, verdict.witness, event)
        assert value == verdict.witness_value < 0.0

    @given(st.floats(min_value=1e-3, max_value=1e3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_of_verdict(self, c, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scenario = random_scenario(rng, int(rng.integers(2, 5)))
        x = Gamble(rng.standard_normal(scenario.n))
        plain = check_local_trust(scenario, x).holds
        scaled = check_local_trust(scenario, x.scaled(c)).holds
        assert plain == scaled

    def test_matches_sweep_oracle_on_samples(self):
        rng = np.random.default_rng(42)
        for scenario in _suite(20, seed=7):
            xs = rng.standard_normal((200, scenario.n))
            oracle = local_sweep_violation_mask(scenario, xs)
            ours = np.array(
                [not check_local_trust(scenario, Gamble(x)).holds for x in xs]
            )
            assert np.array_equal(oracle, ours)


class TestGlobalTrust:
    def test_anti_expert_margin_and_event(self, anti_expert):
        verdict = check_global_trust(anti_expert)
        assert not verdict.holds
        assert verdict.margin == pytest.approx(0.5, abs=TOL)
        assert verdict.witness_event.sorted_members() == [1]
        # The per-event program for {w2} alone: x_1 >= 0, x_2 <= -s,
        # 0.5 x_2 <= -s, unit box -- optimum 0.5 on the ray through (0, -1).
        margin, x = event_violation_margin(anti_expert, Event(2, frozenset({1})))
        assert margin == pytest.approx(0.5, abs=TOL)
        assert x.values[1] == pytest.approx(-1.0, abs=TOL)

    def test_truth_expert_holds(self, truth_expert):
        verdict = check_global_trust(truth_expert)
        assert verdict.holds
        assert verdict.margin <= TOL
        # Brute-force oracle: no sampled gamble violates any threshold.
        xs = np.random.default_rng(0).standard_normal((100_000, 2))
        assert not local_sweep_violation_mask(truth_expert, xs).any()
        # And each event cone is violation-free by the scipy solver too.
        for members in ({0}, {1}, {0, 1}):
            assert lp_margin_scipy(truth_expert, frozenset(members)) <= TOL

    def test_agent_as_expert_holds(self, agent_expert):
        verdict = check_global_trust(agent_expert)
        assert verdict.holds
        xs = np.random.default_rng(1).standard_normal((100_000, 2))
        assert not local_sweep_violation_mask(agent_expert, xs).any()

    def test_single_world_space_holds(self):
        scenario = Scenario.from_weights([1.0], [[1.0]])
        assert check_global_trust(scenario).holds

    def test_world_cap(self):
        n = 21
        space = WorldSpace.of_size(n)
        uniform = ProbMass(np.full(n, 1.0 / n))
        scenario = Scenario(space, uniform, tuple(uniform for _ in range(n)))
        with pytest.raises(ValidationError):
            check_global_trust(scenario)

    def test_margins_match_scipy_per_event(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            scenario = random_scenario(rng, int(rng.integers(2, 5)))
            n = scenario.n
            for mask in range(1, 1 << n):
                members = frozenset(i for i in range(n) if mask >> i & 1)
                if event_probability(scenario.agent, Event(n, members)) <= 0.0:
                    continue
                ours, _ = event_violation_margin(scenario, Event(n, members))
                assert ours == pytest.approx(
                    lp_margin_scipy(scenario, members), abs=1e-8
                )

    def test_agreement_with_sampled_local_checks(self):
        # Global verdict vs the threshold-sweep oracle on 10^4 gambles each,
        # across a mixed suite of over 100 scenarios.
        scenarios = _suite(110, seed=555)
        holds = viols = 0
        for k, scenario in enumerate(scenarios):
            verdict = check_global_trust(scenario)
            xs = np.random.default_rng(9000 + k).standard_normal((10_000, scenario.n))
            sampled_violation = bool(local_sweep_violation_mask(scenario, xs).any())
            assert verdict.holds == (not sampled_violation)
            holds += verdict.holds
            viols += not verdict.holds
        assert holds >= 20 and viols >= 20  # the suite genuinely exercises both

    @pytest.mark.parametrize(
        "agent, a",
        [
            # The raw draw behind a trusting n=7 benchmark scenario (global-exact,
            # seed 3, 8th round): the solver once pivoted on a 1e-12 entry there
            # and reported a spurious margin for event [0, 1, 2, 5, 6].
            (
                [0.0702040499550601, 2.8131034584914132e-06, 0.17464479155189477,
                 0.19881745713111396, 0.25322016807956554, 0.079057936822708,
                 0.22405278335619902],
                0.44538304921653193,
            ),
            # The same agent after renormalisation, with a rounded mixing weight.
            (
                [0.07020404995506012, 2.8131034584914136e-06, 0.1746447915518948,
                 0.19881745713111398, 0.2532201680795656, 0.07905793682270801,
                 0.22405278335619905],
                0.445383049216532,
            ),
        ],
        ids=["benchmark-draw", "renormalised"],
    )
    def test_tiny_agent_weight_trusting_holds(self, agent, a):
        agent = np.array(agent)
        n = agent.size
        scenario = Scenario.from_weights(
            agent, [a * np.eye(n)[i] + (1.0 - a) * agent for i in range(n)]
        )
        verdict = check_global_trust(scenario)
        assert verdict.holds
        assert verdict.margin <= TOL

    def test_witness_validity_on_random_suite(self):
        for scenario in _suite(40, seed=4242):
            verdict = check_global_trust(scenario)
            if verdict.holds:
                continue
            event = expert_event(scenario, verdict.witness, 0.0)
            assert event == verdict.witness_event
            assert event_probability(scenario.agent, event) > 0.0
            value = conditional_expectation(scenario.agent, verdict.witness, event)
            assert value == verdict.witness_value < 0.0


def _repeated_row_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Two distinct expert rows repeated (singular E); the last world has no mass."""
    distinct = [rng.dirichlet(np.ones(n)) for _ in range(2)]
    agent = np.append(rng.dirichlet(np.ones(n - 1)), 0.0)
    return Scenario.from_weights(agent, [distinct[i % 2] for i in range(n)])


class TestGlobalTrustBits:
    """Golden ``check_global_trust`` results as ``float.hex``.

    The values pin the cone-LP layer bit for bit, so a change to the row
    order of the event programs, the pivot rule or the pivot arithmetic
    that moves any verdict, margin or witness bit fails here.
    """

    GOLDEN = {
        "random_n6": (
            lambda: random_scenario(np.random.default_rng(2), 6),
            "0x1.d468c47cf2c07p-2",
            ["0x1.3a8d188f9e581p+0", "0x1.3a8d188f9e580p+0", "0x1.c910f957ee95cp-2",
             "-0x1.5addc372d7ea7p-1", "-0x1.8ae5cee0c34fcp-1", "-0x1.8ae5cee0c34fdp-1"],
            [3, 5],
            "-0x1.7a4c91ad1f0c4p-1",
        ),
        "repeated_row_n6": (
            lambda: _repeated_row_scenario(np.random.default_rng(1), 6),
            "0x1.690d2831bc29cp-1",
            ["-0x1.4b796be721eb1p-1", "0x1.0a47ca9584b0cp-3", "0x1.47763bbc0b15bp-2",
             "-0x1.4b796be721eb2p-1", "-0x1.4b796be721eb2p-1", "0x1.5a434a0c6f0a7p+0"],
            [0, 2, 4],
            "-0x1.b0fe34e28d60cp-2",
        ),
        "positive_side_n5": (
            lambda: random_scenario(np.random.default_rng(28), 5),
            "0x1.14ed5cdbd4dd8p-1",
            ["0x1.453b5736f5376p+0", "0x1.bb0c9e5df46f8p-5", "-0x1.7589519215913p-1",
             "0x1.cc9437d51d774p-1", "-0x1.7589519215912p-1"],
            [2, 3, 4],
            "-0x1.69f2a7f33ba4ap-1",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_verdict(self, name):
        make, margin, witness, event, value = self.GOLDEN[name]
        verdict = check_global_trust(make())
        assert not verdict.holds
        assert verdict.margin.hex() == margin
        assert [float(v).hex() for v in verdict.witness.values] == witness
        assert verdict.witness_event.sorted_members() == event
        assert verdict.witness_value.hex() == value

    def test_golden_cases_cover_their_paths(self):
        repeated = _repeated_row_scenario(np.random.default_rng(1), 6)
        assert np.linalg.matrix_rank(repeated.expert_matrix()) == 2
        scenario = random_scenario(np.random.default_rng(28), 5)
        witness = check_global_trust(scenario).witness
        assert expectation(scenario.agent, witness) > 0.0  # positive-side box


class TestAlmostEverywhereTrust:
    def test_anti_expert_half(self, anti_expert):
        # Violations are exactly the two mixed-sign quadrants, mass 1/2.
        estimate = estimate_ae_trust(anti_expert, 1.0, 100_000, seed=0)
        assert estimate.value == pytest.approx(0.5, abs=0.005)

    def test_truth_expert_zero(self, truth_expert):
        for sigma, samples in ((1.0, 100_000), (3.0, 10_000)):
            assert estimate_ae_trust(truth_expert, sigma, samples, seed=1).value == 0.0

    def test_agent_as_expert_zero(self, agent_expert):
        assert estimate_ae_trust(agent_expert, 1.0, 10_000, seed=2).value == 0.0

    def test_matches_independent_oracle_counts(self, anti_expert):
        xs = np.random.default_rng(3).standard_normal((50_000, 2))
        oracle = float(np.mean(t0_violation_mask(anti_expert, xs)))
        ours = estimate_ae_trust(anti_expert, 1.0, 50_000, seed=3)
        assert abs(oracle - ours.value) < 5 * (ours.std_error + 1e-4)

    def test_statistical_form_of_equivalence(self):
        # Frequency zero whenever the exact checker says trust holds;
        # decisively positive whenever it reports a violation.
        for k, scenario in enumerate(_suite(25, seed=31)):
            verdict = check_global_trust(scenario)
            estimate = estimate_ae_trust(scenario, 1.0, 100_000, seed=k)
            if verdict.holds:
                assert estimate.value == 0.0
            else:
                assert estimate.value > 5 * estimate.std_error > 0.0

    def test_deterministic_and_thread_invariant(self, anti_expert, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        serial = estimate_ae_trust(anti_expert, 1.0, 150_000, seed=8)
        monkeypatch.setenv("DEFLAB_THREADS", "4")
        threaded = estimate_ae_trust(anti_expert, 1.0, 150_000, seed=8)
        assert serial == threaded

    def test_rejects_bad_sigma(self, anti_expert):
        with pytest.raises(ValidationError):
            estimate_ae_trust(anti_expert, 0.0, 10, seed=0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, anti_expert, sigma):
        with pytest.raises(ValidationError, match="positive and finite"):
            estimate_ae_trust(anti_expert, sigma, 10, seed=0)


class TestScenarioValidation:
    def test_row_count_must_match(self):
        with pytest.raises(ValidationError):
            Scenario.from_weights([0.5, 0.5], [[1.0, 0.0]])

    def test_row_dimension_must_match(self):
        with pytest.raises(ValidationError):
            Scenario.from_weights([0.5, 0.5], [[1.0], [0.5, 0.5]])

    def test_verdict_shape_enforced(self):
        from deference_lab import TrustVerdict

        with pytest.raises(ValidationError):
            TrustVerdict(holds=True, witness=Gamble([1.0]))
        with pytest.raises(ValidationError):
            TrustVerdict(holds=False)
