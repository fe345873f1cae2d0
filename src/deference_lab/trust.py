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
  decides trust.  The tests run in that order: class residual, then
  off-diagonal entry of K', then row sum, each computed only when the
  tests before it pass.  A residual can exist only when rank E' < n: n
  independent rows span R^n, which holds every class mass, so at rank n
  the residual test is skipped.  Each failure has a closed-form witness:
  the least-norm X with expert previsions +1 on the accepting classes and
  -1 elsewhere, moved along the offending direction until
  ``pi(X 1_A) <= -1`` and scaled to ``max |X_j| = 1``.

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

Floating point decides within the one slack tau = ``core.SLACK``: "holds"
means that this float scenario passes within tau, and every class or chain
residual above tau yields a witness.  Verdicts carry a witness normalized
to threshold zero: the witness gamble X satisfies
``pi(X | [P(X) >= 0]) < 0`` with the stored event and value, as read by the
one witness check, ``_require_negative_witness``, which raises
:class:`ValidationError` for a witness that lost its violation in floats.
Its outcome is final: both checks stop at their first offence and return
the event and value it reads or let its error through, and the boxes reach
it too, the positive side through the mirror -X.  It also returns the
event margin xi, the least ``-P_i(X)`` over the experts outside A, and
``pi(X 1_A)``; the global check reads its margin and the boxes their width
from those, so no other code reads a witness's expert previsions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SLACK,
    Event,
    Gamble,
    ProbMass,
    ValidationError,
    WorldSpace,
    _check_dims,
    _conditional,
    _ordered_sum,
)
from .measures import MeasureSpec
from .sampling import ScoreEstimate, mc_frequency

_EPS = np.finfo(float).eps

__all__ = [
    "Scenario",
    "TrustVerdict",
    "check_local_trust",
    "check_global_trust",
    "estimate_ae_trust",
]


@dataclass(frozen=True)
class Scenario:
    """Agent prevision plus one expert prevision per world.

    The expert rows and then the agent row are stacked once, at
    construction, into one read-only (n+1) x n matrix; :meth:`expert_matrix`
    returns a view of its expert rows.
    """

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
        stack = np.vstack([p.weights for p in (*expert, self.agent)])
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_matrix", stack[:-1])

    @property
    def n(self) -> int:
        return self.space.n

    def expert_matrix(self) -> np.ndarray:
        """Row i = the expert's mass function if world i is the case."""
        return self._matrix

    @classmethod
    def from_weights(cls, agent, expert_rows) -> "Scenario":
        return cls(
            space=WorldSpace.of_size(len(agent)),
            agent=ProbMass(np.asarray(agent, dtype=float)),
            expert=tuple(ProbMass(np.asarray(row, dtype=float)) for row in expert_rows),
        )


@dataclass(frozen=True, slots=True)
class TrustVerdict:
    """Outcome of a trust check, with a threshold-zero witness on failure.

    When ``holds`` is False the witness triple is populated, and the event
    and value are the ones ``_require_negative_witness`` reads from the
    witness X: ``witness_event`` is [P(X) >= 0] and ``witness_value`` is
    pi(X | witness_event) < 0.

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


def _expert_previsions(scenario: Scenario, x: Gamble) -> np.ndarray:
    """Every expert prevision ``P_i(x)`` at once, each bit for bit ``expectation``."""
    _check_dims(scenario.agent, x)
    return _ordered_sum(scenario.expert_matrix() * x.values)


def _require_negative_witness(scenario: Scenario, x: Gamble) -> tuple[Event, float, float, float]:
    """The one check of a witness: X's event A = [P(X) >= 0] and pi(X | A) < 0.

    Returns A, pi(X | A), the event margin xi = ``min(-P_i(X))`` over the
    experts outside A (inf when A is every world) and pi(X 1_A), the partial
    expectation the conditional value was read from.  No other code reads a
    witness's expert previsions: the global margin and the boxes take xi
    and pi(X 1_A) from here.
    """
    previsions = _expert_previsions(scenario, x)
    accepted = previsions >= 0.0
    event = Event(accepted.size, frozenset(accepted.nonzero()[0].tolist()))
    value, partial = _conditional(scenario.agent.weights, x.values, accepted)
    if value is None or not value < 0.0:
        raise ValidationError(
            "not a trust violation witness: conditional value given [P(X) >= 0] "
            f"is {'undefined' if value is None else value} on event {event.sorted_members()}"
        )
    outside = previsions[~accepted].tolist()
    xi = -max(outside) if outside else math.inf
    return event, value, xi, partial


def check_local_trust(scenario: Scenario, x: Gamble) -> TrustVerdict:
    """Decide trust on one gamble across every real threshold.

    Sweeps the attained expert values (with zero added, so a gamble that
    already violates at threshold zero is reported unshifted); thresholds
    whose conditional is undefined pass.  The first threshold v, in
    increasing order, whose event has positive agent probability but
    conditional value below v decides: the gamble fails, and the witness
    is shifted to threshold zero.  A plain shift by v would leave the
    threshold-achieving expert rows within rounding noise of zero, so
    nonzero thresholds shift by v minus half the available slack instead,
    landing strictly inside the violating cone.  The one witness check
    reads the verdict's event and value from that witness; when the
    shifted witness does not violate in floats, the first violation
    cannot be verified and its :class:`ValidationError` propagates.
    """
    previsions = _expert_previsions(scenario, x)
    values = previsions.tolist()
    for v in sorted(set(values) | {0.0}):
        cond = _conditional(scenario.agent.weights, x.values, previsions >= v)[0]
        if cond is None or cond >= v:
            continue
        slack = min([v - cond, *(v - pv for pv in values if pv < v)])
        witness = x.shifted(slack / 2.0 - v) if v else x
        event, value, *_ = _require_negative_witness(scenario, witness)
        return TrustVerdict(False, witness, event, value)
    return TrustVerdict(holds=True)


def check_global_trust(scenario: Scenario) -> TrustVerdict:
    """Decide trust over every gamble at threshold zero, exactly.

    Groups identical expert rows into classes, drops the classes of zero
    agent mass and decides by the module docstring.  Linearly dependent
    distinct rows fail on the chain prefix with the largest residual; full
    rank takes the sign test within the slack tau: the largest class
    residual above tau fails first, then the largest off-diagonal entry of
    K' above tau, then the most negative row sum below -tau.  The offence
    picked yields the closed-form witness, which the one witness check
    re-reads: a lost violation raises its :class:`ValidationError`, as do
    dependent rows that leave no chain prefix above tau.
    """
    e = scenario.expert_matrix()
    pi = scenario.agent.weights
    # A class is named by its first world.  A class of zero agent mass
    # moves neither pi(A) nor pi(X 1_A), so only the classes with a world
    # of positive mass are kept, in the order of their first worlds.
    first: dict[tuple[float, ...], int] = {}
    head = [first.setdefault(row, i) for i, row in enumerate(map(tuple, e.tolist()))]
    kept = sorted({h for h, p in zip(head, pi.tolist()) if p > 0.0})
    k = len(kept)
    distinct = e.take(kept, axis=0)
    masses = (np.array(head)[:, None] == kept) * pi[:, None]  # (n, k): column c is pi o 1_c
    basis_u, sv, basis_vt = np.linalg.svd(distinct, full_matrices=False)
    rank = int(np.count_nonzero(sv > sv[0] * max(distinct.shape) * _EPS))

    if rank < k:
        inside, x, direction = _chain_offence(distinct, masses, basis_vt[:rank])
    else:
        pinv = basis_vt.T @ (basis_u.T / sv[:, None])  # least-norm X for E'X = u is pinv @ u
        offence = _full_rank_offence(basis_vt, pinv, masses)
        if offence is None:
            return TrustVerdict(holds=True, margin=0.0)
        inside, direction = offence
        # Expert previsions +1 on the accepting classes and -1 off them.
        x = pinv @ np.where(inside, 1.0, -1.0)

    # Move along the offending direction until pi(X 1_A) <= -1.  Each row
    # of masses has at most one nonzero entry, so the product rounds nothing.
    weight = masses @ inside
    x = x + max(0.0, weight @ x + 1.0) / -(weight @ direction) * direction
    witness = Gamble(x / np.abs(x).max())
    event, value, xi, partial = _require_negative_witness(scenario, witness)
    # The event's cone-LP objective at the (feasible) witness.
    return TrustVerdict(False, witness, event, value, margin=min(-partial, xi))


def _full_rank_offence(
    basis: np.ndarray, pinv: np.ndarray, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """(accepting classes, direction) of the first offence for independent rows, or None.

    Each test runs only when those before it pass; ties go to the first
    extreme entry in C order.  Rank n rows span R^n: no class residual.
    """
    n, k = masses.shape
    if k < n:
        residual = _off_row_space(basis, masses)
        sizes = np.sqrt(np.add.reduce(residual * residual, axis=0))  # column norms
        c = int(sizes.argmax())
        if sizes[c] > SLACK:
            return np.arange(k) == c, -residual[:, c]
    kq = pinv.T @ masses  # K'
    off = kq.copy()
    off.flat[:: k + 1] = 0.0
    d, c = divmod(int(off.argmax()), k)
    if off[d, c] > SLACK:
        return np.arange(k) == c, -pinv[:, d]
    rows = np.add.reduce(kq, axis=1)
    d = int(rows.argmin())
    if rows[d] < -SLACK:
        return np.ones(k, dtype=bool), pinv[:, d]
    return None


def _chain_offence(
    distinct: np.ndarray, masses: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accepting classes, start X, direction) for linearly dependent rows.

    ``u = E' y`` for the ordering vector ``y_j = sin(j + 1)``: the sines of
    distinct integers are linearly independent over the rationals (e^i is
    transcendental), so in exact arithmetic distinct rational rows never
    tie.  Each cut t between two consecutive distinct values of u, and one
    below the least, accepts the upper set ``{c : u_c >= t}`` at
    ``X = y - t``.  The prefix whose agent mass leaves the largest residual
    off the row space ``basis`` fails along that residual, which moves no
    positive-mass expert prevision.
    """
    y = np.sin(np.arange(1.0, distinct.shape[1] + 1.0))
    u = distinct @ y
    levels = np.unique(u)[::-1]
    cuts = np.append((levels[:-1] + levels[1:]) / 2.0, levels[-1] - 1.0)
    prefixes = u >= cuts[:, None]  # (cuts, k): an ascending chain of upper sets
    residual = _off_row_space(basis, masses @ prefixes.T)  # column j: pi o 1_{A_j}'s
    sizes = np.sqrt(np.add.reduce(residual * residual, axis=0))  # column norms
    j = int(sizes.argmax())
    if not sizes[j] > SLACK:
        raise ValidationError("dependent expert rows left no chain prefix off their row space")
    return prefixes[j], y - cuts[j], -residual[:, j]


def _off_row_space(basis: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Each column less its projection on the row space of ``basis``.

    ``basis`` has orthonormal rows.  It projects twice: one pass leaves
    about 1e-17 of the row space in a residual of size eps, and a witness
    moves about 1/eps^2 along it, so near eps = 1e-9 that leftover would
    outweigh the +-1 expert previsions and lose the violation.
    """
    residual = columns - basis.T @ (basis @ columns)
    return residual - basis.T @ (basis @ residual)


def _acceptance(scenario: Scenario, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample row: which experts accept it (``P_i(X) >= 0``), and ``pi(X)``.

    The expert and agent previsions come from one matrix product with the
    scenario's stack (the agent row after the expert rows), so identical
    mass functions give bit-identical columns: an expert equal to the agent
    cancels exactly, sample by sample, not just in expectation.
    """
    # The world-major product ``stack @ xs.T`` is 1.4-2.4x faster per
    # 4,096-row block at n = 2..8 (27 vs 37 us at n = 8, one BLAS thread
    # on a 2-CPU Xeon), but its bits follow the BLAS kernel's blocking: on
    # 4,190 random rows they differed from these at every n >= 32 tried,
    # and the n = 300 integrand test fails on it.  The estimator bits are
    # pinned to this product.
    prev = xs @ scenario._stack.T
    # Compare on the slice, not on all of prev: a strided view of the
    # whole comparison is cheaper here but makes every product with it
    # downstream about 3x slower, so the mask stays C-contiguous.
    return prev[:, :-1] >= 0.0, prev[:, -1].copy()


def estimate_ae_trust(scenario: Scenario, sigma: float, samples: int, seed: int) -> ScoreEstimate:
    """Frequency of threshold-zero violations among Gaussian gambles.

    Draws ``samples`` gambles i.i.d. from the centered spherical Gaussian of
    scale ``sigma`` and counts those whose conditional prevision given
    ``[P(X) >= 0]`` is defined and negative, with binomial standard error.
    Deterministic for a given seed, independent of thread count.  The draw
    is ``MeasureSpec.gaussian(sigma)``'s; :mod:`deference_lab.sampling`
    says when its memo spares it.
    """
    draw = MeasureSpec.gaussian(sigma).sampler(scenario.n)
    pi = scenario.agent.weights
    ones = np.ones(scenario.n)

    def hits(xs: np.ndarray) -> np.ndarray:
        accepted, agent_value = _acceptance(scenario, xs)
        partial = (xs * accepted) @ pi
        # Full acceptance reuses the agent column: no sub-ulp violations.
        # The float count of accepting experts is exact below 2**53 (a
        # uint8 count would wrap at 256).
        partial = np.where(accepted @ ones == scenario.n, agent_value, partial)
        # An event of zero agent mass has partial +-0, never below zero.
        return partial < 0.0

    return mc_frequency(draw, hits, samples, seed)
