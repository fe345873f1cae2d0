"""Synthesizing a measure that makes a trust violation show up in the scores.

When trust fails, an open box of uniformly violating gambles grows around
a witness (the box's base), and on that box and its mirror image the
integrand of the gap identity is strictly positive.  An admissible measure
concentrating enough mass there drives the expected inaccuracy gap
strictly positive -- the agent expects the expert to score *worse* --
while staying admissible: the concentration is a symmetric bump pair and
a sliver of base Gaussian keeps the density positive everywhere.

The gap is affine in the bump weight w: gap(w) = (1 - w) g0 + w gb, with
g0 the base Gaussian's gap and gb the bump pair's.  At the heaviest
admissible weight, 1 - ``MIN_BASE_WEIGHT``, the base term shrinks to
2^-20 g0, so a positive gb decides the sign unless it is within about
2^-20 |g0| of zero.  No search over weights is needed: one measure, one
estimate.
"""

from __future__ import annotations

from .boxes import Orientation, ViolationBox
from .accuracy import expected_gap
from .measures import MIN_BASE_WEIGHT, BumpPair, MeasureSpec
from .sampling import ScoreEstimate
from .trust import Scenario, _require_negative_witness

__all__ = ["SearchExhaustedError", "build_adversarial_measure"]

#: How many standard errors above zero the estimated gap must sit.
REQUIRED_SIGMAS = 5.0


class SearchExhaustedError(RuntimeError):
    """The adversarial measure's estimated gap was not statistically positive."""

    def __init__(self, message: str, best_weight: float, best_estimate: ScoreEstimate):
        super().__init__(message)
        self.best_weight = best_weight
        self.best_estimate = best_estimate


def build_adversarial_measure(
    scenario: Scenario,
    box: ViolationBox,
    base_sigma: float,
    samples: int,
    seed: int,
) -> tuple[MeasureSpec, ScoreEstimate]:
    """An admissible measure giving this scenario a positive gap.

    The measure puts all but ``MIN_BASE_WEIGHT`` of its mass into a bump
    pair at the box midpoint, of scale ``box.delta / 6``, on top of a base
    Gaussian of scale ``base_sigma``.  Its gap is affine in the bump weight,
    (1 - w) g0 + w gb.  The identity integrand is strictly positive on the
    box and its mirror, where all but a sliver of the bump pair's mass
    lands, so gb > 0 unless that sliver outweighs the box, and at this
    weight the bump term outweighs the base term.  Returns the measure
    with its gap estimated at ``seed`` when the estimate clears five
    standard errors.  Raises :class:`SearchExhaustedError` with that
    weight and estimate if it does not -- a sign of too few samples or a
    degenerate box, not of a refuted theorem.  The box's negative-side
    base (``-box.base`` on the positive side) must witness a violation of
    this scenario: the O(n^2) witness check of :mod:`deference_lab.trust`
    runs before any sampling and raises :class:`ValidationError` otherwise.
    """
    base = box.base if box.orientation is Orientation.NEGATIVE_SIDE else -box.base
    _require_negative_witness(scenario, base)
    weight = 1.0 - MIN_BASE_WEIGHT
    # Three standard deviations inside every face: nearly all of each half's
    # mass (99% and change in low dimension) lands in the box and, by
    # symmetry, the negated half's lands in the mirrored box.
    bump = BumpPair(center=box.midpoint(), scale=box.delta / 6.0, weight=weight)
    measure = MeasureSpec.mixture(sigma=base_sigma, bumps=(bump,))
    estimate = expected_gap(scenario, measure, samples, seed)
    if estimate.value > REQUIRED_SIGMAS * estimate.std_error:
        return measure, estimate
    raise SearchExhaustedError(
        f"bump weight {weight} did not reach a gap {REQUIRED_SIGMAS} standard errors "
        f"above zero with {samples} samples (gap {estimate.value} +- {estimate.std_error})",
        best_weight=weight,
        best_estimate=estimate,
    )
