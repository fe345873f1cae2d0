"""Deciding Total Trust, exactly, and estimating its almost-everywhere form.

A :class:`Scenario` pairs the agent's prevision with one expert prevision
per world.  Three checks live here:

* :func:`check_local_trust` -- the threshold sweep for a single gamble.
  On a finite space the conditioning event ``[P(X) >= t]`` only changes at
  the n attained values ``P_i(X)``, and on each constancy interval the
  requirement is hardest at its upper end, so checking the attained values
  decides the full real-t quantifier.

* :func:`check_global_trust` -- the exact decision over *all* gambles at
  threshold zero.  Gambles with expert-acceptance event A form the convex
  cone ``{X : P_i(X) >= 0 on A, P_i(X) < 0 off A}``; trust fails on that
  cone iff a small LP (strictness handled by a maximized margin variable,
  the cone normalized by a unit box) has a strictly positive optimum.
  Enumerating the (at most 2^n - 1) events with positive agent probability
  decides trust exactly.

* :func:`estimate_ae_trust` -- the sampled frequency of threshold-zero
  violations under a centered Gaussian, which is mutually absolutely
  continuous with Lebesgue measure: a violation set of positive Lebesgue
  measure is hit with positive probability.

Verdicts carry a witness normalized to threshold zero: the witness gamble
X satisfies ``pi(X | [P(X) >= 0]) < 0`` with the stored event and value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Event,
    Gamble,
    ProbMass,
    ValidationError,
    WorldSpace,
    conditional_expectation,
    expectation,
)
from .sampling import ScoreEstimate, gaussian_draw, mc_frequency
from .simplex import SimplexError, simplex_maximize

__all__ = [
    "Scenario",
    "TrustVerdict",
    "expert_event",
    "check_local_trust",
    "check_global_trust",
    "event_violation_margin",
    "estimate_ae_trust",
    "VIOLATION_TOL",
    "MAX_GLOBAL_WORLDS",
]

#: A cone LP optimum above this margin counts as a trust violation.
VIOLATION_TOL = 1e-9

#: Hard cap on the exact global check (2^n cone programs).
MAX_GLOBAL_WORLDS = 20


@dataclass(frozen=True)
class Scenario:
    """Agent prevision plus one expert prevision per world."""

    space: WorldSpace
    agent: ProbMass
    expert: tuple[ProbMass, ...]

    def __post_init__(self) -> None:
        n = self.space.n
        if self.agent.n != n:
            raise ValidationError(f"agent mass has {self.agent.n} worlds, space has {n}")
        expert = tuple(self.expert)
        if len(expert) != n:
            raise ValidationError(f"need one expert prevision per world: got {len(expert)} for n={n}")
        for i, row in enumerate(expert):
            if row.n != n:
                raise ValidationError(f"expert prevision {i} has {row.n} worlds, space has {n}")
        object.__setattr__(self, "expert", expert)

    @property
    def n(self) -> int:
        return self.space.n

    def expert_matrix(self) -> np.ndarray:
        """Row i = the expert's mass function if world i is the case."""
        return np.vstack([p.weights for p in self.expert])

    @classmethod
    def from_weights(cls, agent, expert_rows, labels=None) -> "Scenario":
        n = len(agent)
        space = WorldSpace(tuple(labels)) if labels is not None else WorldSpace.of_size(n)
        return cls(
            space=space,
            agent=ProbMass(np.asarray(agent, dtype=float)),
            expert=tuple(ProbMass(np.asarray(row, dtype=float)) for row in expert_rows),
        )


@dataclass(frozen=True)
class TrustVerdict:
    """Outcome of a trust check, with a threshold-zero witness on failure.

    When ``holds`` is False the witness triple is populated and satisfies
    ``witness_event == expert_event(scenario, witness, 0)`` and
    ``witness_value == conditional_expectation(agent, witness, witness_event) < 0``.
    ``margin`` is the best cone-LP optimum seen by the global check (None
    for local checks).
    """

    holds: bool
    witness: Gamble | None = None
    witness_event: Event | None = None
    witness_value: float | None = None
    margin: float | None = None

    def __post_init__(self) -> None:
        has_witness = self.witness is not None
        if self.holds == has_witness:
            raise ValidationError("verdict must carry a witness exactly when trust fails")
        if has_witness and not (self.witness_value is not None and self.witness_value < 0):
            raise ValidationError("witness must come with a strictly negative conditional value")


def expert_event(scenario: Scenario, x: Gamble, t: float) -> Event:
    """The event that the expert's prevision of x is at least t.

    Membership is the exact floating-point comparison ``P_i(x) >= t``; ties
    land inside the event.
    """
    members = frozenset(
        i for i, row in enumerate(scenario.expert) if expectation(row, x) >= t
    )
    return Event(scenario.n, members)


def check_local_trust(scenario: Scenario, x: Gamble) -> TrustVerdict:
    """Decide trust on one gamble across every real threshold.

    Sweeps the attained expert values (with zero added, so a gamble that
    already violates at threshold zero is reported unshifted); the first
    threshold v, in increasing order, whose event has positive agent
    probability but conditional value below v yields a violation, and the
    reported witness is shifted to threshold zero.  A plain shift by v
    would leave the threshold-achieving expert rows within rounding noise
    of zero, so nonzero thresholds shift by v minus half the available
    slack instead, landing strictly inside the violating cone; thresholds
    whose conditional is undefined are skipped, as are detections too thin
    to survive that interior shift (sub-ulp artifacts of the division).
    """
    values = [expectation(row, x) for row in scenario.expert]
    for v in sorted(set(values) | {0.0}):
        event = Event(scenario.n, frozenset(i for i, pv in enumerate(values) if pv >= v))
        cond = conditional_expectation(scenario.agent, x, event)
        if cond is None or cond >= v:
            continue
        if v == 0.0:
            return TrustVerdict(
                holds=False, witness=x, witness_event=event, witness_value=cond
            )
        slack = v - cond
        outside = [v - pv for pv in values if pv < v]
        if outside:
            slack = min(slack, min(outside))
        witness = x.shifted(slack / 2.0 - v)
        event0 = expert_event(scenario, witness, 0.0)
        value0 = conditional_expectation(scenario.agent, witness, event0)
        if event0 == event and value0 is not None and value0 < 0.0:
            return TrustVerdict(
                holds=False, witness=witness, witness_event=event0, witness_value=value0
            )
    return TrustVerdict(holds=True)


def _event_lp(scenario: Scenario, members: frozenset[int]) -> tuple[float, np.ndarray]:
    """Margin LP for one acceptance event; returns (optimum, witness gamble).

    Variables are x = u - w (u, w >= 0) plus the margin s.  The 3n + 1 rows
    of ``[X | -X | s] z <= b`` are, in order: -P_i(x) <= 0 for i inside the
    event and P_i(x) + s <= 0 for i outside (both ascending), the agent's
    partial expectation over the event plus s <= 0, and the unit box that
    normalizes the cone, x_j <= 1 and -x_j <= 1 interleaved.  Bland's rule
    breaks ties on slack indices, so this order is part of the result bits.
    All right-hand sides are 0 or 1, so the slack basis starts feasible.
    """
    n = scenario.n
    e = scenario.expert_matrix()
    pi = scenario.agent.weights
    inside = np.zeros(n, dtype=bool)
    inside[list(members)] = True

    box = np.kron(np.eye(n), [[1.0], [-1.0]])
    x_part = np.vstack([-e[inside], e[~inside], np.where(inside, pi, 0.0), box])
    a_ub = np.zeros((3 * n + 1, 2 * n + 1))
    a_ub[:, :n] = x_part
    a_ub[:, n : 2 * n] = -x_part
    a_ub[len(members) : n + 1, -1] = 1.0  # outside rows and the agent row
    b_ub = np.zeros(3 * n + 1)
    b_ub[n + 1 :] = 1.0  # box rows

    c = np.zeros(2 * n + 1)
    c[-1] = 1.0
    try:
        result = simplex_maximize(c, a_ub, b_ub)
    except SimplexError as exc:
        labels = [scenario.space.labels[i] for i in sorted(members)]
        raise SimplexError(f"cone program for event {labels} failed: {exc}") from exc
    x = result.x[:n] - result.x[n : 2 * n]
    return result.objective, x


def event_violation_margin(scenario: Scenario, event: Event) -> tuple[float, Gamble]:
    """Largest strict-violation margin achievable with acceptance event A.

    Zero means no gamble with ``[P(X) >= 0] == A`` violates trust there.
    """
    if event.n != scenario.n:
        raise ValidationError(f"event is over {event.n} worlds, scenario over {scenario.n}")
    if not event.members:
        raise ValidationError("the empty event never defines a conditional prevision")
    margin, x = _event_lp(scenario, event.members)
    return margin, Gamble(x)


def check_global_trust(scenario: Scenario) -> TrustVerdict:
    """Decide trust over every gamble at threshold zero, exactly.

    Enumerates acceptance events in descending bitmask order (full space
    first), skipping events of zero agent probability, and keeps the event
    with the strictly largest LP margin.  On failure the witness is pulled
    to the interior of the winning cone -- the LP vertex shifted by half
    its margin -- so every expert prevision of the witness is bounded away
    from zero; that keeps downstream open-box constructions well posed.
    """
    n = scenario.n
    if n > MAX_GLOBAL_WORLDS:
        raise ValidationError(
            f"global check enumerates 2^n cone programs; n={n} exceeds {MAX_GLOBAL_WORLDS}"
        )
    pi = scenario.agent.weights

    best_margin = 0.0
    best_event: frozenset[int] | None = None
    best_x: np.ndarray | None = None
    for mask in range((1 << n) - 1, 0, -1):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if not any(pi[i] > 0.0 for i in members):
            continue
        margin, x = _event_lp(scenario, members)
        if margin > best_margin:
            best_margin, best_event, best_x = margin, members, x

    if best_margin <= VIOLATION_TOL or best_event is None:
        return TrustVerdict(holds=True, margin=best_margin)

    witness = Gamble(best_x + best_margin / 2.0)
    event = expert_event(scenario, witness, 0.0)
    value = conditional_expectation(scenario.agent, witness, event)
    # Reachable: on a near-singular program a rounding-noise optimum above
    # VIOLATION_TOL can pick a vertex whose interior point does not violate.
    if value is None or not value < 0.0:
        raise SimplexError(
            f"interior witness lost its violation for event {sorted(best_event)}"
        )
    return TrustVerdict(
        holds=False,
        witness=witness,
        witness_event=event,
        witness_value=value,
        margin=best_margin,
    )


def _stacked_previsions(scenario: Scenario) -> np.ndarray:
    """Expert rows with the agent appended, for one shared matmul.

    Running the expert and agent previsions of each sample through the same
    matrix product means identical mass functions give bit-identical
    columns, so an expert equal to the agent cancels exactly, sample by
    sample, not just in expectation.
    """
    return np.vstack([scenario.expert_matrix(), scenario.agent.weights])


def estimate_ae_trust(scenario: Scenario, sigma: float, samples: int, seed: int) -> ScoreEstimate:
    """Frequency of threshold-zero violations among Gaussian gambles.

    Draws ``samples`` gambles i.i.d. from the centered spherical Gaussian of
    scale ``sigma`` and counts those whose conditional prevision given
    ``[P(X) >= 0]`` is defined and negative, with binomial standard error.
    Deterministic for a given seed, independent of thread count.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive and finite, got {sigma}")
    n = scenario.n
    pi = scenario.agent.weights
    stacked_t = _stacked_previsions(scenario).T

    def hits(xs: np.ndarray) -> np.ndarray:
        prev = xs @ stacked_t
        accepted = prev[:, :n] >= 0.0
        event_prob = accepted @ pi
        partial = (xs * accepted) @ pi
        # Full acceptance reuses the agent column: no sub-ulp violations.
        partial = np.where(accepted.all(axis=1), prev[:, n], partial)
        return (event_prob > 0.0) & (partial < 0.0)

    return mc_frequency(gaussian_draw(n, sigma), hits, samples, seed)
