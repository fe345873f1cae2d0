"""Global inaccuracy via desirability errors, and the expected-accuracy gap.

A prevision p sorts gambles into almost-desirable (``p(X) >= 0``) and not.
At world i the ideal sorting is by the sign of the payoff ``x_i``, so p can
err in two ways on a gamble X:

* type 1 -- p accepts X but ``x_i < 0`` (accepted a loser);
* type 2 -- p rejects X but ``x_i >= 0`` (rejected a keeper).

The inaccuracy of p at world i is the integral of ``|x_i|`` over both error
regions with respect to an admissible measure (see
:mod:`deference_lab.measures`): each mistake costs its stake.  The scores
here are Monte-Carlo estimates of those integrals.

:func:`expected_gap` estimates how much *worse* the agent expects the
expert to score than itself, weighting world i's score difference by the
agent's own probability of world i.  :func:`rhs_identity` estimates the
same quantity along an entirely different route -- partial expectations of
X over the acceptance event and its complement, split by the sign of the
agent's prevision.  The identity between the two is pointwise algebra:
their integrands are equal on every gamble, up to the order in which each
adds its products.  Both estimators share one sample stream per (seed, N,
measure), so the gap and identity that ``score`` reports differ only by
rounding, not by sampling error.  :mod:`deference_lab.sampling` says when
its memo spares a draw.
"""

from __future__ import annotations

import numpy as np

from .core import ProbMass, _world_index
from .measures import MeasureSpec
from .sampling import ScoreEstimate, mc_estimate
from .trust import Scenario, _acceptance

__all__ = ["inaccuracy_mc", "expected_gap", "rhs_identity"]


def inaccuracy_mc(
    p: ProbMass, i: int, mu: MeasureSpec, samples: int, seed: int
) -> ScoreEstimate:
    """Monte-Carlo estimate of p's inaccuracy at world i under mu.

    Averages ``|x_i|`` over sampled gambles on which p's verdict disagrees
    with the sign of the world-i payoff.  For the ideal mass at world i the
    error regions are empty, so the estimate is exactly zero with zero
    standard error.
    """
    i = _world_index(i, p.n)
    weights = p.weights

    def values(xs: np.ndarray) -> np.ndarray:
        payoff = xs[:, i]
        return np.abs(payoff) * ((xs @ weights >= 0.0) != (payoff >= 0.0))

    return mc_estimate(mu.sampler(p.n), values, samples, seed)


def expected_gap(
    scenario: Scenario, mu: MeasureSpec, samples: int, seed: int
) -> ScoreEstimate:
    """Agent-expected inaccuracy of the expert minus the agent's own.

    One stream of sampled gambles is evaluated against every term: the
    estimator is the sample mean of

        g(X) = sum_i pi(w_i) |x_i| ([expert errs at i] - [agent errs at i]).

    Negative values mean the agent expects the expert to score better.

    Each term is computed as ``x_i pi_i (a - e_i)``, with ``a`` and ``e_i``
    the agent's and expert i's acceptance: a nonzero term needs them to
    differ, so exactly one errs, and ``sign(x_i) (a - e_i)`` is +1 just when
    it is the expert.  So every nonzero term has the bits of
    ``pi_i |x_i| (+-1)``, a world with ``pi_i = 0`` adds a signed zero that
    leaves the running total (from +0.0) unchanged, and adding the worlds in
    order is the per-world sum bit for bit.  The verdicts ``a - e_i`` are
    int8 differences of the acceptance bytes; their values -1, 0 and +1
    (never -0) promote to float exactly in the product with ``x_i pi_i``.
    """
    pi = scenario.agent.weights

    def values(xs: np.ndarray) -> np.ndarray:
        expert_accepts, agent_value = _acceptance(scenario, xs)
        agent_accepts = (agent_value >= 0.0)[:, None]
        verdicts = agent_accepts.view(np.int8) - expert_accepts.view(np.int8)
        total = np.zeros(len(xs))
        for term in (xs * pi * verdicts).T:
            total += term
        return total

    return mc_estimate(mu.sampler(scenario.n), values, samples, seed)


def rhs_identity(
    scenario: Scenario, mu: MeasureSpec, samples: int, seed: int
) -> ScoreEstimate:
    """The gap's partial-expectation form, estimated on the same stream.

    Per sampled gamble X with acceptance event A = [P(X) >= 0]:

        h(X) = - pi(X 1_A)      if pi(X) < 0
               + pi(X 1_{A^c})  if pi(X) >= 0

    An event of zero agent mass has partial expectation +-0, so h needs no
    case for it.  Shares the sample stream with :func:`expected_gap` for
    equal (seed, N, mu), and h(X) equals the gap's g(X) as algebra, so the
    two estimates separate only by rounding.
    """
    pi = scenario.agent.weights

    def values(xs: np.ndarray) -> np.ndarray:
        accepted, agent_value = _acceptance(scenario, xs)
        accept_part = (xs * accepted) @ pi
        reject_part = (xs * ~accepted) @ pi
        negative = agent_value < 0.0
        return -accept_part * negative + reject_part * ~negative

    return mc_estimate(mu.sampler(scenario.n), values, samples, seed)
