"""Open neighbourhoods on which a trust violation holds uniformly.

A single violating gamble is not enough for measure-theoretic arguments:
the constructions here fatten a witness X into an open axis-aligned box of
gambles that all violate trust the same way, with the same acceptance
event, while staying clear of the n hyperplanes ``{Y : P_i(Y) = 0}`` on
which expert previsions vanish.

Two margins control the box for a witness with event A = [P(X) >= 0] and
``pi(X | A) < 0``:

* ``value_margin`` -- how much X can be lifted uniformly before the
  conditional value reaches zero; equals ``-pi(X | A)`` since a uniform
  lift moves the conditional one-for-one.
* ``event_margin`` -- how much X can be lifted before an excluded world
  enters the acceptance event; equals ``min(-P_i(X))`` over worlds outside
  A (infinite when A is everything).

With ``delta`` below both, every Y strictly between X and X + delta keeps
the event and stays violating; the box is open, hence of positive Lebesgue
measure.  The positive-side case (gambles just *below* a witness whose
conditional given ``[P(X) < 0]`` is strictly positive) is the same
construction seen through negation: off the expert hyperplanes, X is a
positive-side witness exactly when -X is a negative-side one with the same
event, so :func:`build_positive_box` builds the negative-side box of -X
(the event and value it has already derived) and the proof carries over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (
    Event,
    Gamble,
    ProbMass,
    ValidationError,
    conditional_expectation,
    expectation,
)
from .trust import Scenario, expert_event

__all__ = [
    "Orientation",
    "ViolationBox",
    "NotAViolationWitness",
    "DegenerateBoxError",
    "value_margin",
    "event_margin",
    "build_violation_box",
    "build_positive_box",
]

class NotAViolationWitness(ValidationError):
    """The gamble does not witness the violation the construction needs."""


class DegenerateBoxError(RuntimeError):
    """The witness leaves no positive box width."""


class Orientation(Enum):
    """Which strict inequality holds uniformly on the box interior."""

    NEGATIVE_SIDE = "negative_side"  # pi(Y | [P(Y) >= 0]) < 0
    POSITIVE_SIDE = "positive_side"  # pi(Y | [P(Y) < 0]) > 0


@dataclass(frozen=True)
class ViolationBox:
    """An open box of gambles violating trust uniformly, minus hyperplanes.

    ``lower``/``upper`` are componentwise *open* bounds.  ``hyperplanes``
    holds the expert mass functions; the open set represented is the box
    interior with the (Lebesgue-null) zero sets ``P_i(Y) = 0`` removed,
    so membership is tested pointwise rather than carved out geometrically.
    """

    base: Gamble
    event: Event
    value_margin: float
    event_margin: float
    delta: float
    lower: np.ndarray
    upper: np.ndarray
    orientation: Orientation
    hyperplanes: tuple[ProbMass, ...]

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValidationError(f"box width must be positive and finite, got {self.delta}")
        if self.delta > min(self.value_margin, self.event_margin):
            raise ValidationError("box width exceeds the margins that justify it")
        if not np.all(self.upper - self.lower > 0.0):
            raise ValidationError("box must be nonempty and open in every coordinate")
        lower = self.lower.copy()
        upper = self.upper.copy()
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.base.n

    def midpoint(self) -> Gamble:
        return Gamble((self.lower + self.upper) / 2.0)

    def contains(self, y: Gamble) -> bool:
        """Strict interior membership, excluding the expert hyperplanes."""
        if y.n != self.n:
            return False
        inside = bool(np.all(y.values > self.lower) and np.all(y.values < self.upper))
        return inside and all(expectation(p, y) != 0.0 for p in self.hyperplanes)

    def sample_interior(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform draws from the open set; hyperplane hits are redrawn.

        Exact hits have probability zero, so the redraw loop is a formality
        that keeps the advertised set and the sampled set identical.
        """
        width = self.upper - self.lower
        points = self.lower + rng.random((count, self.n)) * width
        normals = np.vstack([p.weights for p in self.hyperplanes])
        for _ in range(100):
            on_plane = np.any(points @ normals.T == 0.0, axis=1)
            if not on_plane.any():
                return points
            redraw = int(np.count_nonzero(on_plane))
            points[on_plane] = self.lower + rng.random((redraw, self.n)) * width
        raise RuntimeError("could not sample off the expert hyperplanes")  # pragma: no cover

    def mirrored(self) -> "ViolationBox":
        """The negated box -Y, which backs the opposite strict inequality.

        Negating every gamble flips acceptance into rejection away from the
        hyperplanes, so the conditioning event is preserved while the
        orientation swaps.
        """
        flipped = (
            Orientation.POSITIVE_SIDE
            if self.orientation is Orientation.NEGATIVE_SIDE
            else Orientation.NEGATIVE_SIDE
        )
        return ViolationBox(
            base=-self.base,
            event=self.event,
            value_margin=self.value_margin,
            event_margin=self.event_margin,
            delta=self.delta,
            lower=-self.upper,
            upper=-self.lower,
            orientation=flipped,
            hyperplanes=self.hyperplanes,
        )


def _require_negative_witness(scenario: Scenario, x: Gamble) -> tuple[Event, float]:
    event = expert_event(scenario, x, 0.0)
    value = conditional_expectation(scenario.agent, x, event)
    if value is None or not value < 0.0:
        raise NotAViolationWitness(
            "not a trust violation witness: conditional value given [P(X) >= 0] "
            f"is {'undefined' if value is None else value}"
        )
    return event, value


def value_margin(scenario: Scenario, x: Gamble) -> float:
    """Uniform lift that drives the witness's conditional value to zero.

    A lift by epsilon moves the conditional by exactly epsilon, so the
    admissible lifts are ``(0, -pi(X | A))`` in closed form; no numeric
    search is involved.
    """
    _, value = _require_negative_witness(scenario, x)
    return -value


def event_margin(scenario: Scenario, x: Gamble) -> float:
    """Uniform lift below which the acceptance event cannot change.

    Worlds already accepting only become more accepting under a lift, so
    the binding constraint is the most nearly accepting excluded world:
    ``min(-P_i(X))`` outside the event, infinite if nothing is excluded.
    """
    event, _ = _require_negative_witness(scenario, x)
    return _event_margin(scenario, x, event)


def _event_margin(scenario: Scenario, x: Gamble, event: Event) -> float:
    outside = [i for i in range(scenario.n) if i not in event]
    if not outside:
        return math.inf
    return min(-expectation(scenario.expert[i], x) for i in outside)


def build_violation_box(scenario: Scenario, x: Gamble) -> ViolationBox:
    """The open box (X, X + delta) of uniformly violating gambles.

    ``delta`` is the smaller of the two margins; when the witness itself
    has strictly negative unconditional prevision, delta is additionally
    capped at ``-pi(X)`` so the whole box keeps a negative prevision (the
    mirrored box then lies entirely on the nonnegative side, which the
    adversarial measure construction relies on).
    """
    event, value = _require_negative_witness(scenario, x)
    return _negative_box(scenario, x, event, value)


def _negative_box(scenario: Scenario, x: Gamble, event: Event, value: float) -> ViolationBox:
    """``build_violation_box`` for a witness whose event and value are known."""
    lam = -value
    xi = _event_margin(scenario, x, event)
    delta = min(lam, xi)
    unconditional = expectation(scenario.agent, x)
    if unconditional < 0.0:
        delta = min(delta, -unconditional)
    return ViolationBox(
        base=x,
        event=event,
        value_margin=lam,
        event_margin=xi,
        delta=delta,
        lower=x.values.copy(),
        upper=x.values + delta,
        orientation=Orientation.NEGATIVE_SIDE,
        hyperplanes=tuple(scenario.expert),
    )


def build_positive_box(scenario: Scenario, x: Gamble) -> ViolationBox:
    """The open box (X - delta, X) of gambles violating trust from above.

    Preconditions: ``pi(X) >= 0``, the rejection event B = [P(X) < 0] has
    positive probability, and ``pi(X | B) > 0``.  The width is

        delta = min(pi(X | B), min over accepting i of P_i(X), pi(X)),

    which is exactly the width of ``build_violation_box(scenario, -X)``:
    off the hyperplanes -X has acceptance event B and conditional
    ``-pi(X | B)``.  Every Y in the box is X - D with each D_j in (0, delta),
    so ``0 < Q(D) < delta`` for every mass function Q, and

    * event constancy: P_i(Y) < P_i(X) < 0 on B, and
      P_i(Y) > P_i(X) - delta >= 0 off B;
    * positive conditional: ``pi(Y 1_B) > pi(B) (pi(X | B) - delta) >= 0``;
    * nonnegative prevision: ``pi(Y) > pi(X) - delta >= 0``;
    * off the hyperplanes: no P_i(Y) is zero, by the first line.

    A zero width leaves no box: raises :class:`DegenerateBoxError` when
    ``pi(X) = 0`` or when some accepting expert has ``P_i(X) = 0``.
    """
    unconditional = expectation(scenario.agent, x)
    if unconditional < 0.0:
        raise NotAViolationWitness(
            f"positive-side witness needs pi(X) >= 0, got {unconditional}"
        )
    rejection = expert_event(scenario, x, 0.0).complement()
    value = conditional_expectation(scenario.agent, x, rejection)
    if value is None:
        raise NotAViolationWitness(
            "positive-side witness needs a rejection event of positive probability"
        )
    if not value > 0.0:
        raise NotAViolationWitness(
            f"positive-side witness needs pi(X | [P(X) < 0]) > 0, got {value}"
        )
    if unconditional == 0.0:
        raise DegenerateBoxError("degenerate box: pi(X) = 0 leaves no width below X")
    if expert_event(scenario, -x, 0.0) != rejection:
        raise DegenerateBoxError(
            "degenerate box: X lies on the zero hyperplane of an accepting expert"
        )
    # Rounding is sign-symmetric, so -value is exactly pi(-X | B).
    mirror = _negative_box(scenario, -x, rejection, -value)
    # Negating the mirror's upper bound would give -0.0 where x_j == delta.
    return replace(mirror.mirrored(), lower=x.values - mirror.delta)
