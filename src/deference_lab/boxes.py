"""Open neighbourhoods on which a trust violation holds uniformly.

A single violating gamble is not enough for measure-theoretic arguments:
the constructions here fatten a witness X into an open axis-aligned box of
gambles that all violate trust the same way, with the same acceptance
event, while staying clear of the n hyperplanes ``{Y : P_i(Y) = 0}`` on
which expert previsions vanish.

Two margins control the box for a witness with event A = [P(X) >= 0] and
``pi(X | A) < 0``.  Both come from ``trust._require_negative_witness`` (the
one witness check), which returns pi(X | A) and xi, and both are
:class:`ViolationBox` fields:

* ``value_margin`` (lambda) -- how much X can be lifted uniformly before
  the conditional value reaches zero; equals ``-pi(X | A)`` since a
  uniform lift moves the conditional one-for-one.
* ``event_margin`` (xi) -- how much X can be lifted before an excluded
  world enters the acceptance event; equals ``min(-P_i(X))`` over worlds
  outside A (infinite when A is everything), since worlds already
  accepting only become more accepting under a lift.

With ``delta = min(lambda, xi)``, every Y strictly between X and X + delta
keeps the event and stays violating; the box is open, hence of positive
Lebesgue measure.  The positive-side case (gambles just *below* X whose
conditional given their rejection event is strictly positive) is the same
construction seen through negation, and :func:`build_positive_box` is the
one place such a box is made: it hands -X to the one witness check through
:func:`build_violation_box` and negates that box, with no check of its own.
A box stores only its base, width and side: its bounds derive from them,
so they cannot stray from the base that function certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import Event, Gamble, ValidationError
from .trust import Scenario, _require_negative_witness

__all__ = ["Orientation", "ViolationBox", "build_violation_box", "build_positive_box"]


class Orientation(Enum):
    """Which strict inequality holds uniformly on the box interior."""

    NEGATIVE_SIDE = "negative_side"  # pi(Y | [P(Y) >= 0]) < 0
    POSITIVE_SIDE = "positive_side"  # pi(Y | [P(Y) < 0]) > 0


@dataclass(frozen=True)
class ViolationBox:
    """An open box of gambles violating trust uniformly.

    For base X it is (X, X + delta) on the negative side and (X - delta, X)
    on the positive side; ``lower`` and ``upper`` are these *open* bounds.
    No expert's zero hyperplane ``P_i(Y) = 0`` meets a built box, so none
    is carved out: a negative-side box holds the Y = X + D with every D_j
    in (0, delta), so 0 < P_i(D) < delta for every mass function, and the
    margins keep the accepting experts above zero and the others below.  A
    positive-side box is such a box negated, made only by
    :func:`build_positive_box`.  Its bounds and midpoint must be finite
    floats.
    """

    base: Gamble
    event: Event
    value_margin: float
    event_margin: float
    delta: float
    orientation: Orientation

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValidationError(f"box width must be positive and finite, got {self.delta}")
        if self.delta > min(self.value_margin, self.event_margin):
            raise ValidationError("box width exceeds the margins that justify it")
        with np.errstate(over="ignore"):
            ends = np.concatenate([self.lower, self.upper, self.lower + self.upper])
        if not np.isfinite(ends).all():
            raise ValidationError("box bounds and midpoint must stay within float range")
        if not np.all(self.upper - self.lower > 0.0):
            raise ValidationError("box must be nonempty and open in every coordinate")

    @property
    def lower(self) -> np.ndarray:
        if self.orientation is Orientation.NEGATIVE_SIDE:
            return self.base.values
        return self.base.values - self.delta

    @property
    def upper(self) -> np.ndarray:
        if self.orientation is Orientation.NEGATIVE_SIDE:
            return self.base.values + self.delta
        return self.base.values

    def midpoint(self) -> Gamble:
        return Gamble((self.lower + self.upper) / 2.0)


def build_violation_box(scenario: Scenario, x: Gamble) -> ViolationBox:
    """The open box (X, X + delta) of uniformly violating gambles.

    ``delta`` is the smaller margin, so every Y in the box has event A and
    ``pi(Y | A) < pi(X | A) + delta <= 0``, hence ``pi(Y 1_A) < 0``.  The
    gap identity's integrand h, which the adversarial measure construction
    relies on, is then positive on the box whatever the sign of ``pi(Y)``:
    ``h(Y) = -pi(Y 1_A) > 0`` if ``pi(Y) < 0``, and ``h(Y) = pi(Y 1_{A^c})
    = pi(Y) - pi(Y 1_A) > 0`` if ``pi(Y) >= 0``.  Off the ties
    ``pi(Y) = 0``, ``h(-Y) = h(Y)``, so h is positive on the mirror too.
    """
    event, value, xi, _ = _require_negative_witness(scenario, x)
    lam = -value
    return ViolationBox(
        base=x,
        event=event,
        value_margin=lam,
        event_margin=xi,
        delta=min(lam, xi),
        orientation=Orientation.NEGATIVE_SIDE,
    )


def build_positive_box(scenario: Scenario, x: Gamble) -> ViolationBox:
    """The open box (X - delta, X) of gambles violating trust from above.

    It is the one place a positive-side box is made: the negative box of
    -X, from ``build_violation_box(scenario, -X)``, with its base negated
    back and its side flipped.  That call raises :class:`ValidationError`
    unless -X passes the one witness check: its event A' = [P(-X) >= 0] =
    [P(X) <= 0] has positive probability and ``pi(X | A') > 0``.  Negation
    is exact in floats, so every Y in (X - delta, X) has -Y in the negative
    box of -X.  There each expert in A' has ``P_i(-Y) > 0``, every other
    expert ``P_i(-Y) < 0``, and ``pi(-Y | A') < 0``.  So Y's rejection event
    [P(Y) < 0] is A', no zero hyperplane meets the box, ``pi(Y | A') > 0``,
    and the gap integrand h is positive on the box, as on its mirror.  None
    of this uses the sign of ``pi(X)``.  An expert with ``P_i(X) = 0``
    accepts X itself, an excluded corner of the box, and rejects every Y
    inside it.
    """
    neg = build_violation_box(scenario, -x)
    return replace(neg, base=-neg.base, orientation=Orientation.POSITIVE_SIDE)
