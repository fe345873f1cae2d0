"""Deciding Total Trust, exactly, and estimating its almost-everywhere form.

A :class:`Scenario` pairs the agent's prevision with one expert prevision
per world.  Three checks live here:

* :func:`check_local_trust` -- the threshold sweep for a single gamble.
  On a finite space the conditioning event ``[P(X) >= t]`` only changes at
  the n attained values ``P_i(X)``, and on each constancy interval the
  requirement is hardest at its upper end, so checking the attained values
  decides the full real-t quantifier.

* :func:`check_global_trust` -- the exact decision over *all* gambles at
  threshold zero.  Group identical expert rows into classes, E = C E',
  and drop every class of zero agent mass: such a class changes neither
  ``pi(A)`` nor ``pi(X 1_A)``.  Put u = E' X over the k remaining
  classes.  The acceptance event A is the union of the classes with
  u_c >= 0, and ``pi(X 1_A)`` is the sum over those classes of
  ``(pi o 1_c) . X``.  When E' has full row rank, u ranges over all of
  R^k, and each ``pi o 1_c`` either lies in the row space of E', as
  ``E'^T K'_c``, or leaves a least-squares residual along ker E'.  A
  residual means trust fails on class c alone: shifting X along the
  residual leaves every expert prevision in place and drives the class's
  partial expectation below zero.  Without residuals,
  ``pi(X 1_A) = sum_{c in A} K'_c . u``, which is non-negative on every
  sign pattern of u exactly when no off-diagonal entry of K' is positive
  and no row sum is negative.  So only the singleton classes and the full
  space bind, and one least-squares solve (an SVD of the k x n matrix E')
  decides trust.  Each failure has a closed-form witness: the least-norm
  X with expert previsions +1 on the accepting classes and -1 elsewhere,
  moved along the offending direction until ``pi(X 1_A) <= -1`` and scaled
  to ``max |X_j| = 1``.

  When the distinct rows are linearly dependent (rank r < k), trust
  fails.  Take u = E' y with distinct entries; one exists because the
  rows are distinct.  The upper sets of u form a chain A_1 < ... < A_k.
  Each is the acceptance event of some X = y - t (the rows sum to one, so
  E' X = u - t; cut t between the j-th and (j+1)-th largest values of u,
  or below the least for A_k), and each has positive agent mass.  Their
  class indicators span R^k, and the classes have disjoint supports, so
  the k vectors ``pi o 1_{A_j}`` are linearly independent and cannot all
  lie in the r-dimensional row space of E'.  Some A_j leaves a
  least-squares residual.  The witness starts at X = y - t for that cut
  and moves along minus the residual, which no positive-mass expert
  prevision sees.

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
    indicator,
)
from .sampling import ScoreEstimate, gaussian_draw, mc_frequency

__all__ = [
    "Scenario",
    "TrustVerdict",
    "expert_event",
    "check_local_trust",
    "check_global_trust",
    "estimate_ae_trust",
]

# A class whose agent mass leaves a least-squares residual above this lies
# outside the row space of the distinct expert rows.
_RESIDUAL_SLACK = 1e-10

# Entries of K' within this of zero count as zero in the sign test; trusting
# mixtures built in floating point sit about 1e-17 off the boundary.
_SIGN_SLACK = 1e-12


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


@dataclass(frozen=True, slots=True)
class TrustVerdict:
    """Outcome of a trust check, with a threshold-zero witness on failure.

    When ``holds`` is False the witness triple is populated and satisfies
    ``witness_event == expert_event(scenario, witness, 0)`` and
    ``witness_value == conditional_expectation(agent, witness, witness_event) < 0``.

    ``margin`` is set by the global check only (None for local checks).  On
    failure it is the witness event's cone-LP objective at the witness,
    ``min(-pi(X 1_A), min_{i not in A} -P_i(X))`` with ``max |X_j| <= 1``: a
    certified lower bound on that event's LP optimum, the largest such
    objective over gambles with that acceptance event.  When trust holds
    it is 0.0, the optimum of every event's LP.
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


def check_global_trust(scenario: Scenario) -> TrustVerdict:
    """Decide trust over every gamble at threshold zero, exactly.

    Groups identical expert rows into classes, drops the classes of zero
    agent mass and decides by the module docstring.  Linearly dependent
    distinct rows fail on the chain prefix with the largest residual; full
    rank takes the sign test: the largest class residual above
    ``_RESIDUAL_SLACK`` fails first, then the largest off-diagonal entry of
    K' above ``_SIGN_SLACK``, then the most negative row sum below
    ``-_SIGN_SLACK``.  The offence picked yields the closed-form witness,
    whose violation is re-checked in floating point (``RuntimeError`` if it
    is lost).
    """
    e = scenario.expert_matrix()
    pi = scenario.agent.weights
    classes: dict[tuple[float, ...], int] = {}
    label = np.array([classes.setdefault(tuple(row.tolist()), len(classes)) for row in e])
    member = label == np.arange(len(classes))[:, None]  # member[c, i] iff world i is in class c
    # A class of zero agent mass moves neither pi(A) nor pi(X 1_A).
    member = member[member @ pi > 0.0]
    k = len(member)
    distinct = e[np.argmax(member, axis=1)]
    masses = (member * pi).T  # (n, k): column c is pi o 1_c
    basis_u, sv, basis_vt = np.linalg.svd(distinct, full_matrices=False)
    rank = int(np.count_nonzero(sv > sv[0] * max(distinct.shape) * np.finfo(float).eps))

    if rank < k:
        inside, x, direction = _chain_offence(distinct, masses, basis_vt[:rank])
    else:
        pinv = basis_vt.T @ (basis_u.T / sv[:, None])  # least-norm X for E'X = u is pinv @ u
        kq = pinv.T @ masses  # K'
        residual = masses - basis_vt.T @ (basis_vt @ masses)
        sizes = np.linalg.norm(residual, axis=0)
        off = kq - np.diag(np.diag(kq))
        rows = kq.sum(axis=1)

        if sizes.max() > _RESIDUAL_SLACK:
            c = int(np.argmax(sizes))
            inside, direction = np.arange(k) == c, -residual[:, c]
        elif off.max() > _SIGN_SLACK:
            d, c = np.unravel_index(np.argmax(off), off.shape)
            inside, direction = np.arange(k) == c, -pinv[:, d]
        elif rows.min() < -_SIGN_SLACK:
            d = int(np.argmin(rows))
            inside, direction = np.ones(k, dtype=bool), pinv[:, d]
        else:
            return TrustVerdict(holds=True, margin=0.0)
        # Expert previsions +1 on the accepting classes and -1 off them.
        x = pinv @ np.where(inside, 1.0, -1.0)

    # Move along the offending direction until pi(X 1_A) <= -1.
    weight = masses[:, inside].sum(axis=1)
    x = x + max(0.0, weight @ x + 1.0) / -(weight @ direction) * direction
    witness = Gamble(x / np.abs(x).max())
    event = expert_event(scenario, witness, 0.0)
    value = conditional_expectation(scenario.agent, witness, event)
    if value is None or not value < 0.0:
        raise RuntimeError(
            f"closed-form witness lost its violation for event {event.sorted_members()}"
        )
    # The event's cone-LP objective at the (feasible) witness.
    partial = expectation(scenario.agent, Gamble(witness.values * indicator(event).values))
    outside = [expectation(row, witness) for i, row in enumerate(scenario.expert) if i not in event]
    return TrustVerdict(
        holds=False,
        witness=witness,
        witness_event=event,
        witness_value=value,
        margin=-max([partial, *outside]),
    )


def _chain_offence(
    distinct: np.ndarray, masses: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accepting classes, start X, direction) for linearly dependent rows.

    ``u = E' y`` for the ordering vector ``y_j = sin(j + 1)``: the sines of
    distinct integers are linearly independent over the rationals (e^i is
    transcendental), so in exact arithmetic distinct rational rows never
    tie.  Each cut t between two
    consecutive distinct values of u, and one below the least, accepts the
    upper set ``{c : u_c >= t}`` at ``X = y - t``.  The prefix whose agent
    mass leaves the largest residual off the row space ``basis`` fails
    along that residual, which moves no positive-mass expert prevision.
    """
    y = np.sin(np.arange(1.0, distinct.shape[1] + 1.0))
    u = distinct @ y
    levels = np.unique(u)[::-1]
    cuts = np.append((levels[:-1] + levels[1:]) / 2.0, levels[-1] - 1.0)
    prefixes = u >= cuts[:, None]  # (cuts, k): an ascending chain of upper sets
    weights = masses @ prefixes.T  # column j is pi o 1_{A_j}
    residual = weights - basis.T @ (basis @ weights)
    sizes = np.linalg.norm(residual, axis=0)
    j = int(np.argmax(sizes))
    if not sizes[j] > _RESIDUAL_SLACK:
        raise RuntimeError("dependent expert rows left no chain prefix off their row space")
    return prefixes[j], y - cuts[j], -residual[:, j]


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
