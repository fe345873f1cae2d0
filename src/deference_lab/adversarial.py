"""Synthesizing a measure that makes a trust violation show up in the scores.

When trust fails, an open box of uniformly violating gambles grows around
a witness (the box's base), and on that box and its mirror image the
integrand of the gap identity is strictly positive.  An admissible measure
concentrating enough mass there drives the expected inaccuracy gap
strictly positive -- the agent expects the expert to score *worse* --
while staying admissible: the concentration is a symmetric bump pair and
a sliver of base Gaussian keeps the density positive everywhere.

How much concentration is "enough" has no a-priori bound, so the weight
escalates geometrically toward one and each candidate is judged by its
estimated gap; the first statistically positive candidate wins.
"""

from __future__ import annotations

import numpy as np

from .boxes import Orientation, ViolationBox, _require_negative_witness
from .accuracy import expected_gap
from .measures import BumpPair, MeasureSpec
from .sampling import ScoreEstimate
from .trust import Scenario

__all__ = ["SearchExhaustedError", "build_adversarial_measure"]

#: Geometric weight ladder 1 - 2^-(k+1); 20 rungs leave the base Gaussian
#: at least 2^-20 of the mass, as measure admissibility requires.
MAX_WEIGHT_STEPS = 20

#: How many standard errors above zero a candidate's gap must sit.
REQUIRED_SIGMAS = 5.0


class SearchExhaustedError(RuntimeError):
    """No candidate weight produced a statistically positive gap."""

    def __init__(self, message: str, best_weight: float, best_estimate: ScoreEstimate):
        super().__init__(message)
        self.best_weight = best_weight
        self.best_estimate = best_estimate


def _candidate_seed(seed: int, step: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(step,)).generate_state(1)[0])


def build_adversarial_measure(
    scenario: Scenario,
    box: ViolationBox,
    base_sigma: float,
    samples: int,
    seed: int,
) -> tuple[MeasureSpec, ScoreEstimate]:
    """Find an admissible measure giving this scenario a positive gap.

    Tries bump weights 0.5, 0.75, 0.875, ... (up to 20 doublings toward 1);
    each candidate mixes that much mass into a bump pair at the box midpoint,
    of scale ``box.delta / 6``, on top of a base Gaussian of scale
    ``base_sigma``.  Returns the first candidate whose estimated gap clears
    five standard errors, together with that estimate.  Raises
    :class:`SearchExhaustedError` carrying the best candidate seen if none
    clears -- a sign of too few samples or a degenerate box, not of a
    refuted theorem.  The box's negative-side base
    (``-box.base`` on the positive side) must witness a violation of this
    scenario: an O(n^2) check before any sampling, raising
    :class:`NotAViolationWitness` otherwise.
    """
    base = box.base if box.orientation is Orientation.NEGATIVE_SIDE else -box.base
    _require_negative_witness(scenario, base)
    # Three standard deviations inside every face: nearly all of each half's
    # mass (99% and change in low dimension) lands in the box and, by
    # symmetry, the negated half's lands in the mirrored box.
    center, scale = box.midpoint(), box.delta / 6.0

    def sigmas_above_zero(est: ScoreEstimate) -> float:
        if est.std_error > 0.0:
            return est.value / est.std_error
        return np.inf if est.value > 0.0 else -np.inf

    best_weight = 0.0
    best_estimate: ScoreEstimate | None = None
    best_score = -np.inf
    for step in range(MAX_WEIGHT_STEPS):
        weight = 1.0 - 2.0 ** -(step + 1)
        candidate = MeasureSpec.mixture(
            sigma=base_sigma, bumps=(BumpPair(center=center, scale=scale, weight=weight),)
        )
        estimate = expected_gap(scenario, candidate, samples, _candidate_seed(seed, step))
        score = sigmas_above_zero(estimate)
        if estimate.value > 0.0 and score > REQUIRED_SIGMAS:
            return candidate, estimate
        if best_estimate is None or score > best_score:
            best_score, best_weight, best_estimate = score, weight, estimate

    assert best_estimate is not None
    raise SearchExhaustedError(
        f"no bump weight up to {1.0 - 2.0 ** -MAX_WEIGHT_STEPS} reached a gap "
        f"{REQUIRED_SIGMAS} standard errors above zero with {samples} samples "
        f"(best: weight {best_weight}, gap {best_estimate.value} "
        f"+- {best_estimate.std_error})",
        best_weight=best_weight,
        best_estimate=best_estimate,
    )
