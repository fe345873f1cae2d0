"""Local and global trust decisions, against hand values and oracles."""

import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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
    build_violation_box,
    check_global_trust,
    check_local_trust,
    estimate_ae_trust,
    expectation,
    trust,
)
from oracles import (
    QUARTER_ROWS,
    coarse_trusting_scenario,
    coarse_zero_mass_scenario,
    conditional_loop,
    dependent_rows_scenario,
    event_margins,
    event_violation_margin,
    exact_quotient_holds,
    exact_witness_violates,
    expectation_loop,
    expert_event_loop,
    garbled_scenario,
    guarded_ae_hits,
    informed_zero_mass_scenario,
    local_sweep_violation_mask,
    lp_margin_scipy,
    quarter_grid_orbits,
    random_scenario,
    t0_violation_mask,
    trusting_scenario,
    wide_scenario_rows,
    zero_mass_suite,
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


def _accepting(scenario: Scenario, x: Gamble, t: float) -> list[int]:
    """The worlds of [P(X) >= t], from the expert previsions the local sweep compares."""
    return np.flatnonzero(trust._expert_previsions(scenario, x) >= t).tolist()


class TestExpertEvent:
    def test_anti_expert(self, anti_expert):
        # P_1(X) = x_2 = -1, P_2(X) = x_1 = 1: only world 2 accepts.
        assert _accepting(anti_expert, Gamble([1.0, -1.0]), 0.0) == [1]

    def test_truth_expert(self, truth_expert):
        assert _accepting(truth_expert, Gamble([2.0, -1.0]), 0.0) == [0]

    def test_constant_gamble_at_its_own_level(self, anti_expert, truth_expert):
        for scenario in (anti_expert, truth_expert):
            for c in (-2.0, 0.0, 3.5):
                assert _accepting(scenario, Gamble([c, c]), c) == [0, 1]

    def test_ties_fall_inside(self, truth_expert):
        assert 0 in _accepting(truth_expert, Gamble([0.0, -1.0]), 0.0)

    @pytest.mark.parametrize("t, members", [(math.inf, []), (-math.inf, [0, 1])])
    def test_infinite_threshold_is_kept(self, truth_expert, t, members):
        assert _accepting(truth_expert, Gamble([2.0, -1.0]), t) == members


def _knife_edge_case(rng: np.random.Generator) -> tuple[Scenario, Gamble]:
    """Nearly identical expert rows, a Dirichlet agent and a gamble of scale 1e-3..1e6."""
    n = int(rng.integers(2, 7))
    agent = rng.dirichlet(np.ones(n))
    row = rng.dirichlet(np.ones(n))
    rows = [row * (1.0 + rng.uniform(-1e-13, 1e-13)) for _ in range(n)]
    scenario = Scenario.from_weights(agent, [r / r.sum() for r in rows])
    return scenario, Gamble(10.0 ** rng.uniform(-3.0, 6.0) * rng.normal(size=n))


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
        event = expert_event_loop(anti_expert, verdict.witness, 0.0)
        assert event == verdict.witness_event
        value = conditional_loop(anti_expert.agent.weights, verdict.witness.values, event.members)
        assert value == verdict.witness_value < 0.0

    @given(st.floats(min_value=1e-3, max_value=1e3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_of_verdict(self, c, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scenario = random_scenario(rng, int(rng.integers(2, 5)))
        x = Gamble(rng.standard_normal(scenario.n))
        plain = check_local_trust(scenario, x).holds
        scaled = check_local_trust(scenario, Gamble(x.values * c)).holds
        assert plain == scaled

    def test_sweep_follows_its_own_float_decision(self):
        # Nearly identical expert rows (one Dirichlet row times 1 + u per
        # row, |u| <= 1e-13) put several thresholds within ulps of each
        # other.  Whenever some swept threshold v violates in floats, the
        # first one decides: a failing verdict, or ValidationError when its
        # shifted witness does not verify.  Never "holds".
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            scenario, x = _knife_edge_case(rng)
            thresholds = sorted({expectation(row, x) for row in scenario.expert} | {0.0})
            violates = False
            for v in thresholds:
                event = expert_event_loop(scenario, x, v)
                cond = conditional_loop(scenario.agent.weights, x.values, event.members)
                violates = violates or (cond is not None and cond < v)
            try:
                holds = check_local_trust(scenario, x).holds
            except ValidationError:
                assert violates
                continue
            assert holds == (not violates)

    def test_matches_sweep_oracle_on_samples(self):
        rng = np.random.default_rng(42)
        for scenario in _suite(20, seed=7):
            xs = rng.standard_normal((200, scenario.n))
            oracle = local_sweep_violation_mask(scenario, xs)
            ours = np.array(
                [not check_local_trust(scenario, Gamble(x)).holds for x in xs]
            )
            assert np.array_equal(oracle, ours)


class TestLocalTrustBits:
    """``check_local_trust`` results as ``float.hex``, over a seeded suite.

    The suite holds holding verdicts and failures from both of the sweep's
    outcomes: a gamble that violates at threshold zero, returned as it is,
    and one first caught at a nonzero threshold, returned shifted.
    """

    #: sha256 of ``_verdict_line`` over ``_digest_suite``, one line per gamble.
    SUITE_DIGEST = "63418b3c8fa865027ea8ee86b35c5ff73f6d6ab7c6181a2eee6adf44cac8d36e"

    @staticmethod
    def _digest_suite() -> list[tuple[Scenario, Gamble]]:
        """25 Gaussian gambles on each of ten seeded scenarios per family and n = 2..7."""
        suite = []
        for n in range(2, 8):
            for k, make in enumerate((random_scenario, trusting_scenario)):
                for copy in range(10):
                    rng = np.random.default_rng([200, n, k, copy])
                    scenario = make(rng, n)
                    suite += [(scenario, Gamble(rng.standard_normal(n))) for _ in range(25)]
        return suite

    @staticmethod
    def _verdict_line(verdict) -> str:
        if verdict.holds:
            return "True"
        witness = ",".join(float(v).hex() for v in verdict.witness.values)
        members = verdict.witness_event.sorted_members()
        return f"False {witness} {members} {verdict.witness_value.hex()}"

    def test_seeded_suite_digest(self):
        suite = self._digest_suite()
        verdicts = [check_local_trust(scenario, x) for scenario, x in suite]
        lines = "\n".join(self._verdict_line(v) for v in verdicts)
        assert hashlib.sha256(lines.encode()).hexdigest() == self.SUITE_DIGEST
        failing = [(x, v) for (_, x), v in zip(suite, verdicts) if not v.holds]
        unshifted = sum(v.witness == x for x, v in failing)
        assert (len(suite), len(failing), unshifted) == (3_000, 1_153, 161)


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

    def test_dependent_rows_beyond_the_old_cap_fail(self, monkeypatch):
        # Dependent distinct rows never trust: a closed-form witness, no LP,
        # where one cone program per event would need 2^21 and 2^200 of them.
        calls = _count_simplex_calls(monkeypatch)
        for n in (21, 200):
            scenario = dependent_rows_scenario(np.random.default_rng(21), n)
            verdict = check_global_trust(scenario)
            assert not verdict.holds and verdict.margin > 0.0
            witness, event = verdict.witness, verdict.witness_event
            assert expert_event_loop(scenario, witness, 0.0) == event
            value = conditional_loop(scenario.agent.weights, witness.values, event.members)
            assert value == verdict.witness_value
            assert verdict.witness_value < 0.0
            assert exact_witness_violates(scenario, witness)
        assert calls == []

    def test_uniform_experts_beyond_the_cap_hold(self, monkeypatch):
        # Identical rows form one class: the sign test decides, no LP runs.
        n = 21
        space = WorldSpace.of_size(n)
        uniform = ProbMass(np.full(n, 1.0 / n))
        scenario = Scenario(space, uniform, tuple(uniform for _ in range(n)))
        calls = _count_simplex_calls(monkeypatch)
        verdict = check_global_trust(scenario)
        assert verdict.holds and verdict.margin == 0.0
        assert calls == []

    def test_import_does_not_load_the_simplex(self):
        import deference_lab

        code = "import sys, deference_lab; print('deference_lab.simplex' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(deference_lab.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert done.stdout.strip() == "False"

    def test_margins_match_scipy_per_event(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            scenario = random_scenario(rng, int(rng.integers(2, 5)))
            n = scenario.n
            for mask in range(1, 1 << n):
                members = frozenset(i for i in range(n) if mask >> i & 1)
                indicator = [float(i in members) for i in range(n)]
                if expectation_loop(scenario.agent.weights, indicator) <= 0.0:
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
            # One agent weight below 1e-8: the LP enumeration raised "interior
            # witness lost its violation" for events [0, 1, 2, 3, 6], [0, 1, 4]
            # and [0, 1, 4].
            (
                [0.09791042788064261, 0.33574136627599893, 4.098052982132986e-09,
                 0.42203907209384073, 0.012677462439819383, 0.12924963373926981,
                 0.0023820334723757964],
                0.16120781710665166,
            ),
            (
                [0.14034832609279715, 5.907039302970286e-09, 0.05322432103055235,
                 0.1883424026300161, 0.25277937912557524, 0.36530556521401975],
                0.7123626753264682,
            ),
            (
                [0.10698315670480679, 9.9409633745109e-09, 0.1517825812393327,
                 0.7364808211849253, 0.004753430929971928],
                0.36200251650267057,
            ),
        ],
        ids=["benchmark-draw", "renormalised", "tiny-n7", "tiny-n6", "tiny-n5"],
    )
    def test_tiny_agent_weight_trusting_holds(self, agent, a):
        verdict = check_global_trust(_mixture_scenario(np.array(agent), a))
        assert verdict.holds
        assert verdict.margin == 0.0

    def test_tiny_agent_weight_suite_holds(self):
        # 150 trusting mixtures, one agent weight log-uniform in 1e-9..1e-4.
        rng = np.random.default_rng(3)
        for _ in range(150):
            n = int(rng.integers(5, 8))
            agent = rng.dirichlet(np.ones(n))
            agent[int(rng.integers(n))] = 10.0 ** rng.uniform(-9.0, -4.0)
            agent /= agent.sum()
            verdict = check_global_trust(_mixture_scenario(agent, float(rng.uniform(0.0, 1.0))))
            assert verdict.holds and verdict.margin == 0.0

    def test_near_identical_rows_end_in_a_verdict_or_validation_error(self):
        # Each expert row is one Dirichlet row times 1 + u, |u| <= 4e-13,
        # and the agent gives the last world no mass.  Some closed-form
        # witnesses violate only in floats or not at all; those must raise
        # ValidationError, never any other exception.
        rng = np.random.default_rng(12345)
        for _ in range(1_000):
            n = int(rng.integers(3, 9))
            row = rng.dirichlet(np.ones(n))
            agent = rng.dirichlet(np.ones(n))
            agent[-1] = 0.0
            expert = [row * (1.0 + rng.uniform(-4e-13, 4e-13)) for _ in range(n)]
            try:
                check_global_trust(Scenario.from_weights(agent / agent.sum(), expert))
            except ValidationError:
                pass

    def test_chain_without_a_residual_raises_validation_error(self):
        # A basis of the whole space leaves every prefix on it: no offence.
        distinct = np.array([[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(ValidationError, match="no chain prefix"):
            trust._chain_offence(distinct, np.eye(2), np.eye(2))

    def test_witness_validity_on_random_suite(self):
        for scenario in _suite(40, seed=4242):
            verdict = check_global_trust(scenario)
            if verdict.holds:
                continue
            event = expert_event_loop(scenario, verdict.witness, 0.0)
            assert event == verdict.witness_event
            indicator = [float(i in event) for i in range(scenario.n)]
            assert expectation_loop(scenario.agent.weights, indicator) > 0.0
            value = conditional_loop(scenario.agent.weights, verdict.witness.values, event.members)
            assert value == verdict.witness_value < 0.0


#: Families whose distinct positive-mass rows are linearly dependent.
DEPENDENT = ("dependent", "garbled", "garbled-zero-mass")

#: Families built to trust.
TRUSTING = ("trusting", "coarse", "coarse-zero-mass", "informed-zero-mass")


def _quotient_suite(max_n: int) -> list[tuple[str, Scenario]]:
    """Seeded scenarios of every family the global check distinguishes."""
    makers = {
        "random": random_scenario,
        "trusting": trusting_scenario,
        "repeated": _repeated_row_scenario,
        "coarse": coarse_trusting_scenario,
        "dependent": dependent_rows_scenario,
        "garbled": garbled_scenario,
        "garbled-zero-mass": lambda rng, n: garbled_scenario(rng, n, zero_mass=True),
        "coarse-zero-mass": coarse_zero_mass_scenario,
        "informed-zero-mass": informed_zero_mass_scenario,
    }
    smallest = {"random": 2, "trusting": 2, "repeated": 2, "coarse": 2, "garbled-zero-mass": 4}
    suite = []
    for n in range(2, max_n + 1):
        for k, (family, make) in enumerate(makers.items()):
            if n < smallest.get(family, 3):
                continue
            for copy in range(2 if n <= 5 else 1):
                suite.append((family, make(np.random.default_rng([n, k, copy]), n)))
    return suite


class TestClassQuotientDecision:
    """The closed-form decision against the cone-LP enumeration and its oracles."""

    def test_matches_lp_enumeration_and_scipy(self):
        counts = {"holds": 0, "fails": 0}
        for family, scenario in _quotient_suite(8):
            verdict = check_global_trust(scenario)
            n = scenario.n
            lp = event_margins(scenario)
            highs = max(lp_margin_scipy(scenario, members) for members in lp)
            assert verdict.holds == (max(lp.values()) <= TOL), (family, n)
            assert verdict.holds == (highs <= 1e-7), (family, n)
            if family in TRUSTING:
                assert verdict.holds, (family, n)
            if family in DEPENDENT:
                assert not verdict.holds, (family, n)
                assert exact_witness_violates(scenario, verdict.witness), (family, n)
            if verdict.holds:
                assert verdict.margin == 0.0
            else:
                assert 0.0 < verdict.margin <= lp[verdict.witness_event.members] + 1e-9
                assert expert_event_loop(scenario, verdict.witness, 0.0) == verdict.witness_event
            counts["holds" if verdict.holds else "fails"] += 1
        assert min(counts.values()) >= 20

    def test_exact_rational_sign_test_agrees(self):
        checked = 0
        for family, scenario in _quotient_suite(6):
            if family in DEPENDENT:
                continue
            assert exact_quotient_holds(scenario) == check_global_trust(scenario).holds, family
            checked += 1
        assert checked >= 30

    def test_no_simplex_call_on_any_family(self, monkeypatch):
        calls = _count_simplex_calls(monkeypatch)
        for family, scenario in _quotient_suite(6):
            check_global_trust(scenario)
            assert calls == [], family

    def test_rank_n_rows_leave_no_class_residual(self):
        # The decision skips the class residual test at rank n: n independent
        # rows span R^n, so every class mass lies in their row space.  In
        # floats the residual stays far below the slack tau = 1e-12.
        for n in range(2, 65):
            for maker in (random_scenario, trusting_scenario):
                scenario = maker(np.random.default_rng([200, n]), n)
                _, sv, basis = np.linalg.svd(scenario.expert_matrix())
                assert sv[-1] > sv[0] * n * np.finfo(float).eps  # rank n
                residual = trust._off_row_space(basis, np.diag(scenario.agent.weights))
                assert np.linalg.norm(residual, axis=0).max() <= 1e-14, (maker.__name__, n)


def _mixture_scenario(agent: np.ndarray, a: float) -> Scenario:
    """Experts P_i = a * (point mass at i) + (1 - a) * agent: trust holds."""
    n = agent.size
    return Scenario.from_weights(agent, [a * np.eye(n)[i] + (1.0 - a) * agent for i in range(n)])


def _count_simplex_calls(monkeypatch) -> list[int]:
    """Patch every loaded reference to the dense simplex to record each call."""
    from deference_lab import simplex

    calls: list[int] = []
    original = simplex.simplex_maximize

    def counting(c, a_ub, b_ub):
        calls.append(len(c))
        return original(c, a_ub, b_ub)

    for module in list(sys.modules.values()):
        if getattr(module, "simplex_maximize", None) is original:
            monkeypatch.setattr(module, "simplex_maximize", counting)
    return calls


def _repeated_row_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Two distinct expert rows repeated (singular E); the last world has no mass."""
    distinct = [rng.dirichlet(np.ones(n)) for _ in range(2)]
    agent = np.append(rng.dirichlet(np.ones(n - 1)), 0.0)
    return Scenario.from_weights(agent, [distinct[i % 2] for i in range(n)])


class TestQuarterGrid:
    """The n = 3 grid of rows in quarters, whose masses are exact floats.

    There the exact decision needs no slack, so the float decision must
    match the rational sign test at zero slack on every scenario (exactly
    dependent rows count as failing), and every witness must violate trust
    in exact arithmetic.  Trust is invariant under relabelling worlds, so
    one scenario per orbit stands for the whole orbit.
    """

    def test_decisions_and_witnesses_match_exact_arithmetic(self):
        orbits = quarter_grid_orbits()
        assert sum(size for _, size in orbits) == len(QUARTER_ROWS) ** 4 == 50_625
        holding = 0
        for key, size in orbits:
            agent, *expert = (QUARTER_ROWS[k] for k in key)
            scenario = Scenario.from_weights(agent, expert)
            verdict = check_global_trust(scenario)
            assert verdict.holds == (exact_quotient_holds(scenario, slack=0.0) is True), key
            if verdict.holds:
                holding += size
            else:
                assert exact_witness_violates(scenario, verdict.witness), key
        assert (len(orbits), holding) == (8_505, 1_998)


class TestSlackKnifeEdges:
    """Scenarios on both sides of the one slack tau = 1e-12.

    Each sits a controlled distance off the boundary of trust, so "holds"
    must flip where that distance crosses tau.  A failure must carry a
    witness that violates trust in exact arithmetic, a holding verdict
    must agree with the rational decision at tau, and at zero slack every
    one of them fails: "holds" means holds within tau.
    """

    REPEATED = [[0.36, 0.24, 0.4], [0.36, 0.24, 0.4], [0.15, 0.1, 0.75]]

    @staticmethod
    def _assert_side(scenario, holds):
        verdict = check_global_trust(scenario)
        assert verdict.holds is holds
        assert exact_quotient_holds(scenario) is holds
        assert exact_quotient_holds(scenario, slack=0.0) is False
        if not holds:
            assert exact_witness_violates(scenario, verdict.witness)

    @pytest.mark.parametrize(
        "eps, holds",
        [(1e-9, False), (1e-11, False), (1e-12, False), (3e-13, True), (1e-13, True)],
    )
    def test_class_residual(self, eps, holds):
        # The first two worlds share a row; tilting the agent by eps moves
        # that class's mass off the row space by about eps.
        scenario = Scenario.from_weights([0.3 + eps, 0.2 - eps, 0.5], self.REPEATED)
        self._assert_side(scenario, holds)

    @pytest.mark.parametrize("d, holds", [(3e-6, False), (1e-6, True)])
    def test_off_diagonal_sign(self, d, holds):
        # The largest off-diagonal entry of K' is about 0.3 d^2: 2.7e-12
        # and 3.0e-13.
        rows = [[1.0 - d, d, 0.0], [0.0, 1.0 - d, d], [0.0, 0.0, 1.0]]
        self._assert_side(Scenario.from_weights([0.3, 0.2, 0.5], rows), holds)

    @pytest.mark.parametrize("e, holds", [(1e-12, False), (2.5e-13, True)])
    def test_row_sum_sign(self, e, holds):
        # The agent (1/2 - e, 1/2 + e) is -2e times the first expert row
        # (1, 0) plus 1 + 2e times the second (1/2, 1/2), and those are the
        # row sums of K': -2e-12 and -5e-13.  Its off-diagonal entries are
        # -pi_2 and 0, so the row sum alone decides.
        rows = [[1.0, 0.0], [0.5, 0.5]]
        scenario = Scenario.from_weights([0.5 - e, 0.5 + e], rows)
        self._assert_side(scenario, holds)
        if not holds:
            assert check_global_trust(scenario).witness_event.sorted_members() == [0, 1]


class TestRankCut:
    """Distinct rows count as dependent below sigma_max * max(k, n) * eps."""

    def test_singular_value_between_eps_and_n_eps(self, monkeypatch):
        # The third row is the average of the first two, tilted by d along
        # (0, -1, 1): sigma_min / sigma_max is 1.75 eps for d = 5e-16, inside
        # (eps, 3 eps).  The cut counts that sigma as zero, so the chain
        # decides.  In exact arithmetic the rows are independent, with K'
        # of order 1/d, and trust fails; the chain's witness must violate
        # exactly.
        d = 5e-16
        rows = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.5 - d, 0.25 + d]]
        scenario = Scenario.from_weights([0.2, 0.3, 0.5], rows)
        sv = np.linalg.svd(scenario.expert_matrix(), compute_uv=False)
        assert trust._EPS < sv[-1] / sv[0] < 3 * trust._EPS
        chains = []
        chain_offence = trust._chain_offence
        monkeypatch.setattr(
            trust, "_chain_offence", lambda *args: chains.append(1) or chain_offence(*args)
        )
        verdict = check_global_trust(scenario)
        assert chains == [1]
        assert not verdict.holds and verdict.margin > 0.0
        assert verdict.witness_event.sorted_members() == [0, 2]
        assert exact_quotient_holds(scenario) is False
        assert exact_witness_violates(scenario, verdict.witness)
        assert exact_witness_violates(scenario, verdict.witness)


class TestGlobalTrustBits:
    """Golden ``check_global_trust`` results as ``float.hex``.

    Each pins a closed-form witness, re-checked in ``fractions.Fraction``:
    ``random_n6`` an off-diagonal entry of K', ``repeated_row_n6`` a class
    residual, ``positive_side_n5`` a witness the agent values positively,
    ``dependent_rows_n6`` the chain prefix of linearly dependent rows, and
    ``row_sum_n3`` a negative row sum of K', whose witness event is the
    full space.
    """

    GOLDEN = {
        "random_n6": (
            lambda: random_scenario(np.random.default_rng(2), 6),
            "0x1.5d2c5f6470578p-5",
            ["-0x1.6c4890cba48dcp-2", "0x1.0000000000000p+0", "-0x1.258529e32f70bp-2",
             "-0x1.fca8bbe69dfdfp-3", "0x1.aa4505c75b5d7p-5", "-0x1.2f3175141207dp-3"],
            [3],
            "-0x1.fca8bbe69dfdfp-3",
        ),
        "repeated_row_n6": (
            lambda: _repeated_row_scenario(np.random.default_rng(1), 6),
            "0x1.f3647c947fdfap-2",
            ["-0x1.0000000000000p+0", "-0x1.94dad826f2d95p-4", "0x1.d616053e1523fp-1",
             "-0x1.3a4e61e94b9acp-3", "-0x1.dd7e5ad6aa253p-1", "0x1.a4fb6c1573c55p-2"],
            [0, 2, 4],
            "-0x1.1292aefd3cd7ap-1",
        ),
        "positive_side_n5": (
            lambda: random_scenario(np.random.default_rng(28), 5),
            "0x1.007b350a0f01bp-2",
            ["-0x1.73b746f7478a4p-1", "-0x1.0000000000000p+0", "0x1.790be492b5b9ep-1",
             "-0x1.bcbc7a32302f5p-1", "0x1.deeaeaddacdc4p-2"],
            [0],
            "-0x1.73b746f7478a4p-1",
        ),
        "dependent_rows_n6": (
            lambda: dependent_rows_scenario(np.random.default_rng(3), 6),
            "0x1.6e1b8b5cd8460p-7",
            ["0x1.4b05f06a78455p-2", "-0x1.93787daa5bd81p-1", "0x1.fe451eb42987ap-3",
             "0x1.5b8b67332f5a1p-5", "-0x1.0000000000000p+0", "0x1.e8eaed52f39ecp-5"],
            [1, 4],
            "-0x1.c063d602e97f9p-1",
        ),
        "row_sum_n3": (
            lambda: random_scenario(np.random.default_rng(111), 3),
            "0x1.e24d55ec86538p-5",
            ["-0x1.d5faa3183d865p-2", "-0x1.bcf84de8e4564p-3", "0x1.0000000000000p+0"],
            [0, 1, 2],
            "-0x1.e24d55ec86538p-5",
        ),
    }

    #: sha256 of ``_verdict_line`` over ``_digest_suite``, one line per scenario.
    SUITE_DIGEST = "4e7bd7b74d726be0e0e4290190ca6b7e552b2a6f24f22476d1902c66dd79ae0b"

    @staticmethod
    def _digest_suite() -> list[Scenario]:
        """Five seeded scenarios per family and n = 2..9."""
        makers = (
            random_scenario,
            trusting_scenario,
            _repeated_row_scenario,
            garbled_scenario,
            coarse_trusting_scenario,
            informed_zero_mass_scenario,
        )
        return [
            make(np.random.default_rng([100, n, k, copy]), n)
            for n in range(2, 10)
            for k, make in enumerate(makers)
            if n >= 3 or make not in (garbled_scenario, informed_zero_mass_scenario)
            for copy in range(5)
        ]

    @staticmethod
    def _verdict_line(verdict) -> str:
        if verdict.holds:
            return f"True {verdict.margin.hex()}"
        witness = ",".join(float(v).hex() for v in verdict.witness.values)
        members = verdict.witness_event.sorted_members()
        return f"False {verdict.margin.hex()} {witness} {members} {verdict.witness_value.hex()}"

    def test_seeded_suite_digest(self):
        suite = self._digest_suite()
        assert len(suite) >= 200
        lines = "\n".join(self._verdict_line(check_global_trust(s)) for s in suite)
        assert hashlib.sha256(lines.encode()).hexdigest() == self.SUITE_DIGEST

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_verdict(self, name):
        make, margin, witness, event, value = self.GOLDEN[name]
        verdict = check_global_trust(make())
        assert not verdict.holds
        assert verdict.margin.hex() == margin
        assert [float(v).hex() for v in verdict.witness.values] == witness
        assert verdict.witness_event.sorted_members() == event
        assert verdict.witness_value.hex() == value

    def test_golden_cases_cover_their_paths(self, monkeypatch):
        calls = _count_simplex_calls(monkeypatch)
        repeated = _repeated_row_scenario(np.random.default_rng(1), 6)
        assert np.linalg.matrix_rank(repeated.expert_matrix()) == 2
        check_global_trust(repeated)
        scenario = random_scenario(np.random.default_rng(28), 5)
        witness = check_global_trust(scenario).witness
        assert expectation(scenario.agent, witness) > 0.0  # positive-side box
        dependent = dependent_rows_scenario(np.random.default_rng(3), 6)
        assert np.linalg.matrix_rank(dependent.expert_matrix()) == 2  # three distinct rows
        assert exact_witness_violates(dependent, check_global_trust(dependent).witness)
        assert calls == []
        # The counter is live: the LP oracle's simplex calls do show up.
        event_violation_margin(dependent, Event(6, frozenset({1, 4})))
        assert len(calls) == 1
        # The digest pins the class table on each of its cases.
        cases = Counter(self._table_case(s) for s in self._digest_suite())
        assert cases == {
            "distinct rows, all mass positive": 102,
            "distinct rows, zero-mass worlds": 24,
            "repeated rows, all mass positive": 53,
            "repeated rows, zero-mass worlds in positive classes": 35,
            "repeated rows, a class of zero mass": 16,
        }

    @staticmethod
    def _table_case(scenario: Scenario) -> str:
        rows = [tuple(row) for row in scenario.expert_matrix().tolist()]
        weights = scenario.agent.weights.tolist()
        if len(set(rows)) == scenario.n:
            return "distinct rows, " + (
                "zero-mass worlds" if 0.0 in weights else "all mass positive"
            )
        if 0.0 not in weights:
            return "repeated rows, all mass positive"
        heavy = {row for row, p in zip(rows, weights) if p > 0.0}
        if heavy == set(rows):
            return "repeated rows, zero-mass worlds in positive classes"
        return "repeated rows, a class of zero mass"

    def test_margin_matches_a_loop(self):
        # -max(pi(X 1_A), P_i(X) for i outside A), each added one product at
        # a time from 0.0, is the failing verdict's margin bit for bit.
        failing = 0
        for scenario in self._digest_suite():
            verdict = check_global_trust(scenario)
            if verdict.holds:
                continue
            failing += 1
            x = verdict.witness.values.tolist()
            inside = verdict.witness_event.members
            partial = expectation_loop(
                scenario.agent.weights, [v if j in inside else 0.0 for j, v in enumerate(x)]
            )
            outside = [
                expectation_loop(row, x)
                for i, row in enumerate(scenario.expert_matrix())
                if i not in inside
            ]
            assert verdict.margin.hex() == (-max([partial, *outside])).hex()
            xi = -max(outside) if outside else math.inf
            assert build_violation_box(scenario, verdict.witness).event_margin.hex() == xi.hex()
        assert failing == 115


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

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("family", [random_scenario, trusting_scenario])
    def test_power_of_two_sigma_moves_no_bit(self, family, n):
        # Scaling a draw by 2^k commutes with rounding (nothing here leaves
        # the normal range), so every prevision keeps its sign and every
        # hit stays a hit: the estimate is that at sigma = 1, bit for bit.
        scenario = family(np.random.default_rng(n), n)
        reference = estimate_ae_trust(scenario, 1.0, 2**17, seed=n)
        for sigma in (2.0**-10, 0.5, 4.0, 2.0**20):
            got = estimate_ae_trust(scenario, sigma, 2**17, seed=n)
            assert (got.value.hex(), got.std_error.hex()) == (
                reference.value.hex(),
                reference.std_error.hex(),
            )

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

    def test_hits_match_the_guarded_form(self, monkeypatch):
        # pi(A) = 0 makes pi(X 1_A) a signed zero, never below zero, so the
        # dropped guard pi(A) > 0 changed no hit.  The n = 300 case counts
        # past 255 accepting experts, where a byte count would wrap.
        captured = []
        original = trust.mc_frequency

        def capturing(draw, hits, samples, seed):
            captured.append(hits)
            return original(draw, hits, samples, seed)

        monkeypatch.setattr(trust, "mc_frequency", capturing)
        cases = zero_mass_suite(np.random.default_rng(61))
        for scenario, xs in [*cases, wide_scenario_rows(np.random.default_rng(71))]:
            estimate_ae_trust(scenario, 1.0, 1, seed=0)
            got = captured[-1](xs)
            assert got.dtype == bool
            assert np.array_equal(got, guarded_ae_hits(scenario, xs)), scenario

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

    def test_acceptance_mask_is_contiguous(self):
        # Every estimator multiplies by the mask; a strided one is ~3x slower.
        rng = np.random.default_rng(79)
        for n in (2, 5, 300):
            accepted, agent_value = trust._acceptance(random_scenario(rng, n), rng.standard_normal((64, n)))
            assert accepted.flags.c_contiguous and agent_value.flags.c_contiguous


class TestScenarioValidation:
    @pytest.mark.parametrize("agent", [[1.0], [0.25, 0.25, 0.5]])
    def test_agent_size_must_match(self, agent):
        rows = (ProbMass([1.0, 0.0]), ProbMass([0.0, 1.0]))
        message = f"agent mass has {len(agent)} worlds, space has 2"
        with pytest.raises(ValidationError, match=message):
            Scenario(WorldSpace.of_size(2), ProbMass(agent), rows)

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

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.5, math.nan, None])
    def test_failing_verdict_needs_a_negative_value(self, value):
        from deference_lab import TrustVerdict

        with pytest.raises(ValidationError, match="strictly negative conditional value"):
            TrustVerdict(False, Gamble([1.0, -1.0]), Event(2, {1}), value)
