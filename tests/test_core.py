"""Core prevision algebra: worked examples and algebraic laws."""

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
    conditional_expectation,
    expectation,
)
from deference_lab.sampling import CHUNK_SIZE
from deference_lab.trust import _acceptance, _expert_previsions
from oracles import expectation_loop, random_scenario, stacked_acceptance

TOL = 1e-9


def indicator(event: Event) -> Gamble:
    """The 0/1 gamble paying 1 exactly on the members of the event."""
    return Gamble(np.isin(np.arange(event.n), event.sorted_members()).astype(float))


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def masses(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)
    )
    weights = np.asarray(raw) / np.sum(raw)
    return ProbMass(weights)


@st.composite
def mass_gamble_pairs(draw):
    p = draw(masses())
    values = draw(st.lists(_finite, min_size=p.n, max_size=p.n))
    return p, Gamble(np.asarray(values))


# ---------------------------------------------------------------------------
# Construction contracts
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_world_space_labels_unique(self):
        with pytest.raises(ValidationError):
            WorldSpace(("a", "a"))

    def test_world_space_nonempty(self):
        with pytest.raises(ValidationError):
            WorldSpace(())

    def test_gamble_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Gamble([1.0, math.inf])
        with pytest.raises(ValidationError):
            Gamble([math.nan])

    def test_event_members_in_range(self):
        with pytest.raises(ValidationError):
            Event(2, frozenset({2}))
        with pytest.raises(ValidationError):
            Event(2, frozenset({-1}))

    @pytest.mark.parametrize(
        "n, members", [(3, {0.7}), (2.5, {0}), (3.0, set()), (3, {np.float64(1.0)}), ("3", set())]
    )
    def test_event_takes_only_integers(self, n, members):
        with pytest.raises(ValidationError, match="event needs integer n and members"):
            Event(n, frozenset(members))

    def test_event_takes_numpy_integers_as_ints(self):
        event = Event(np.int64(3), frozenset({np.int64(2), np.uint8(0)}))
        assert event == Event(3, frozenset({0, 2}))
        assert type(event.n) is int and all(type(i) is int for i in event.members)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: WorldSpace.of_size(0), r"world count must be >= 1, got 0"),
            (lambda: Event(0), r"event needs a space of >= 1 worlds, got n=0"),
            (
                lambda: Gamble([[1.0, 2.0]]),
                r"gamble must be a nonempty 1-D real vector, got shape \(1, 2\)",
            ),
        ],
        ids=["world-count", "event-space", "gamble-shape"],
    )
    def test_sizes_and_shapes_are_checked(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Gamble(["a"]), r"gamble must be a real vector, got \['a'\]"),
            (lambda: ProbMass({}), r"probability mass must be a real vector, got \{\}"),
            (lambda: Gamble([[1.0], [1.0, 2.0]]), r"gamble must be a real vector"),
            (lambda: WorldSpace("w1"), r"world labels must be a sequence of labels, got 'w1'"),
        ],
        ids=["gamble-string", "mass-dict", "gamble-ragged", "space-string"],
    )
    def test_malformed_values_raise_validation_error(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_mass_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            ProbMass([-0.1, 1.1])

    def test_mass_rejects_bad_total(self):
        with pytest.raises(ValidationError, match="sums to 0.9"):
            ProbMass([0.5, 0.4])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mass_total_knife_edge_at_the_slack(self, sign):
        # The one slack tau = 1e-12: a total within tau/2 of 1 passes, 2 tau fails.
        ProbMass([0.5, 0.5 + sign * 0.5e-12])
        with pytest.raises(ValidationError, match="expected 1 within 1e-12"):
            ProbMass([0.5, 0.5 + sign * 2e-12])

    @pytest.mark.parametrize("i", [-1, 3])
    def test_ideal_mass_checks_its_world(self, i):
        # -1 would silently pick the last world; 3 would be a bare IndexError.
        with pytest.raises(ValidationError, match=f"world index {i} out of range for n=3"):
            ProbMass.ideal(3, i)

    def test_ideal_mass_needs_an_integer_world(self):
        # Unchecked, a float index passes the range test and fails as IndexError.
        with pytest.raises(ValidationError, match=r"world index must be an integer, got 1\.0"):
            ProbMass.ideal(3, 1.0)

    def test_ideal_mass_is_the_point_mass(self):
        assert ProbMass.ideal(3, 0) == ProbMass([1.0, 0.0, 0.0])
        assert ProbMass.ideal(3, 2) == ProbMass([0.0, 0.0, 1.0])

    def test_normalized_mass_keeps_its_bits(self):
        # A total within rounding (n ulps) of 1 is stored as given, so a mass
        # rebuilt from its own weights is the same mass, bit for bit.
        # Dividing by the total again would move last bits of some of these.
        rng = np.random.default_rng(17)
        would_move = 0
        for n in (2, 3, 5, 8, 40, 500):
            for _ in range(20):
                w = rng.dirichlet(np.ones(n))
                p = ProbMass(w)
                assert np.array_equal(p.weights, w)
                assert ProbMass(p.weights) == p
                would_move += not np.array_equal(w / np.add.accumulate(w)[-1], w)
        assert would_move > 0

    def test_tilted_mass_is_divided_once_then_kept(self):
        tilted = np.array([0.2, 0.3, 0.5]) * (1.0 + 4e-13)
        p = ProbMass(tilted)
        assert np.array_equal(p.weights, tilted / np.add.accumulate(tilted)[-1])
        assert ProbMass(p.weights) == p

    def test_values_are_immutable(self):
        g = Gamble([1.0, 2.0])
        with pytest.raises(ValueError):
            g.values[0] = 5.0
        p = ProbMass([0.5, 0.5])
        with pytest.raises(ValueError):
            p.weights[0] = 1.0


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


class TestExpectation:
    def test_fair_coin_bet(self):
        assert expectation(ProbMass([0.5, 0.5]), Gamble([2.0, -1.0])) == 0.5

    def test_point_mass_reads_first_payoff(self):
        for a, b in [(3.5, -7.0), (0.0, 100.0), (-2.0, -2.0)]:
            assert expectation(ProbMass([1.0, 0.0]), Gamble([a, b])) == a

    def test_weighted(self):
        assert expectation(ProbMass([0.25, 0.75]), Gamble([4.0, 0.0])) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(ProbMass([1.0]), Gamble([1.0, 2.0]))

    @pytest.mark.parametrize("n", [1, 3, 8, 200])
    def test_bits_match_left_to_right_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(300):
            p = ProbMass(rng.dirichlet(np.ones(n)))
            x = Gamble(rng.normal(0.0, 10.0, n) * (rng.random(n) < 0.8))
            assert expectation(p, x).hex() == expectation_loop(p.weights, x.values).hex()
        # The all-experts kernel, row by row, on payoffs scaled by 1e+-300 and
        # on all -0.0 products: -0.0 payoffs, or negative ones on zero weights.
        scenario = random_scenario(rng, n)
        ideal = Scenario.from_weights(scenario.agent.weights, np.eye(n))
        for scale in (1.0, 1e300, 1e-300):
            for x in (
                Gamble(rng.normal(0.0, 10.0, n) * (rng.random(n) < 0.8) * scale),
                Gamble(-np.abs(rng.normal(0.0, 10.0, n)) * scale),
                Gamble(np.full(n, -0.0)),
            ):
                for case in (scenario, ideal):
                    got = [v.hex() for v in _expert_previsions(case, x).tolist()]
                    loop = [expectation_loop(r, x.values).hex() for r in case.expert_matrix()]
                    assert got == loop
        # The shared acceptance kernel against the stacked block it replaced;
        # at n = 200 a chunk's (m, n) blocks would take ~100 MB each.
        if n <= 8:
            xs = rng.normal(0.0, 1.0, (CHUNK_SIZE, n))
            accepted, agent_value = _acceptance(scenario, xs)
            ref_accepted, ref_agent_value = stacked_acceptance(scenario, xs)
            assert np.array_equal(accepted, ref_accepted)
            assert np.array_equal(agent_value.view(np.int64), ref_agent_value.view(np.int64))

    def test_all_negative_zero_products_sum_to_positive_zero(self):
        for p, x in (
            (ProbMass([1.0]), Gamble([-0.0])),
            (ProbMass([0.5, 0.5]), Gamble([-0.0, -0.0])),
            (ProbMass([1.0, 0.0, 0.0]), Gamble([-0.0, -3.0, -1e300])),
        ):
            value = expectation(p, x)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
            assert value.hex() == expectation_loop(p.weights, x.values).hex()

    def test_event_probability_matches_loop_bits(self):
        # conditional_expectation divides p(X 1_A) by p(A), each added left
        # to right like the loop, and is undefined exactly when p(A) is not
        # positive; the full space gives expectation(p, X) itself.
        rng = np.random.default_rng(5)
        undefined = 0
        for n in (1, 3, 8, 200):
            for _ in range(50):
                weights = rng.dirichlet(np.ones(n))
                weights[rng.random(n) < 0.2] = 0.0
                if not weights.any():
                    weights[0] = 1.0
                p = ProbMass(weights / weights.sum())
                x = Gamble(rng.normal(0.0, 3.0, n))
                mask = (rng.random(n) < 0.5).astype(float)
                event = Event(n, frozenset(np.flatnonzero(mask).tolist()))
                got = conditional_expectation(p, x, event)
                if len(event) == n:
                    assert got.hex() == expectation(p, x).hex()
                    continue
                prob = expectation_loop(p.weights, mask)
                if not prob > 0.0:
                    assert got is None
                    undefined += 1
                    continue
                loop = expectation_loop(p.weights, x.values * mask) / prob
                assert got.hex() == loop.hex()
        assert undefined > 0


class TestEventProbability:
    """The conditioning event's probability, as conditional_expectation uses it."""

    def test_single_world(self):
        # p(A) = 0.75 divides p(X 1_A) = 0.75 * 3.
        p = ProbMass([0.25, 0.75])
        assert conditional_expectation(p, Gamble([4.0, 3.0]), Event(2, frozenset({1}))) == 3.0

    def test_empty_event(self):
        p, x = ProbMass([0.3, 0.7]), Gamble([1.0, 2.0])
        assert conditional_expectation(p, x, Event.empty(2)) is None

    def test_full_event(self):
        p, x = ProbMass([0.3, 0.7]), Gamble([1.0, -2.0])
        assert conditional_expectation(p, x, Event.full(2)) == expectation(p, x)

    def test_event_of_another_size_is_rejected(self):
        for event in (Event.full(3), Event.empty(3), Event(3, frozenset({0}))):
            with pytest.raises(ValidationError, match="event has 3"):
                conditional_expectation(ProbMass([0.3, 0.7]), Gamble([1.0, 2.0]), event)


class TestIndicator:
    """The event's 0/1 mask: only its members' payoffs reach the quotient."""

    def test_singleton(self):
        p = ProbMass([0.5, 0.5])
        assert conditional_expectation(p, Gamble([1.0, 2.0]), Event(2, frozenset({0}))) == 1.0

    def test_empty(self):
        p = ProbMass([0.25, 0.25, 0.5])
        assert conditional_expectation(p, Gamble([1.0, 2.0, 4.0]), Event.empty(3)) is None

    def test_full(self):
        p = ProbMass([0.5, 0.5])
        assert conditional_expectation(p, Gamble([1.0, 2.0]), Event.full(2)) == 1.5


class TestConditionalExpectation:
    def test_conditioning_on_single_world(self):
        p, x = ProbMass([0.5, 0.5]), Gamble([2.0, -1.0])
        assert conditional_expectation(p, x, Event(2, frozenset({0}))) == 2.0

    def test_conditioning_on_everything(self):
        p, x = ProbMass([0.5, 0.5]), Gamble([2.0, -1.0])
        assert conditional_expectation(p, x, Event.full(2)) == 0.5

    def test_zero_probability_event_is_undefined(self):
        assert conditional_expectation(ProbMass([1.0, 0.0]), Gamble([5.0, 5.0]), Event(2, frozenset({1}))) is None


# ---------------------------------------------------------------------------
# Algebraic laws
# ---------------------------------------------------------------------------


class TestLaws:
    @given(mass_gamble_pairs(), st.data())
    @settings(max_examples=200)
    def test_event_probability_is_indicator_expectation_exactly(self, pair, data):
        # Off the full space the quotient's denominator is the prevision of
        # the event's indicator, exactly, and so is its numerator's mask.
        p, x = pair
        members = data.draw(st.sets(st.integers(min_value=0, max_value=p.n - 1)))
        event = Event(p.n, frozenset(members))
        if len(event) == p.n:
            return
        mask = indicator(event)
        prob = expectation(p, mask)
        got = conditional_expectation(p, x, event)
        if not prob > 0.0:
            assert got is None
        else:
            assert got == expectation(p, Gamble(x.values * mask.values)) / prob

    @given(mass_gamble_pairs(), st.data())
    @settings(max_examples=200)
    def test_linearity(self, pair, data):
        p, x = pair
        y_values = data.draw(st.lists(_finite, min_size=p.n, max_size=p.n))
        y = Gamble(np.asarray(y_values))
        a = data.draw(_finite)
        b = data.draw(_finite)
        combined = Gamble(a * x.values + b * y.values)
        expected = a * expectation(p, x) + b * expectation(p, y)
        assert expectation(p, combined) == pytest.approx(expected, abs=TOL)

    @given(mass_gamble_pairs(), st.data())
    @settings(max_examples=200)
    def test_law_of_total_expectation(self, pair, data):
        p, x = pair
        members = data.draw(st.sets(st.integers(min_value=0, max_value=p.n - 1)))
        event = Event(p.n, frozenset(members))
        other = event.complement()
        pa, pb = expectation(p, indicator(event)), expectation(p, indicator(other))
        if pa <= 0.0 or pb <= 0.0:
            return
        total = pa * conditional_expectation(p, x, event) + pb * conditional_expectation(
            p, x, other
        )
        assert total == pytest.approx(expectation(p, x), abs=TOL)

    @given(mass_gamble_pairs())
    @settings(max_examples=200)
    def test_expectation_between_extremes(self, pair):
        p, x = pair
        value = expectation(p, x)
        assert np.min(x.values) - 1e-12 <= value <= np.max(x.values) + 1e-12
