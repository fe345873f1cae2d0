"""Finite-world probability and prevision algebra.

Everything downstream is built on four value types over a finite possibility
space of n worlds:

* :class:`WorldSpace` -- the labelled worlds themselves.
* :class:`Gamble` -- a real payoff vector, one entry per world.
* :class:`Event` -- a subset of worlds, stored as 0-based indices.
* :class:`ProbMass` -- a probability mass function; its induced expectation
  functional is the (coherent) prevision used throughout.

Conventions fixed here and relied on everywhere else:

* All reductions over worlds run in a fixed left-to-right order, so verdicts
  and estimates are bit-reproducible across runs.  One kernel,
  :func:`_ordered_sum`, does that adding for :func:`expectation`, the
  :class:`ProbMass` total and :func:`_conditional`, and (over the rows of
  the expert matrix) for the expert previsions of
  :mod:`deference_lab.trust`.
* :func:`_conditional` treats zero-probability conditioning events as
  *undefined* (returns ``None``), never as zero; the definedness test is an
  exact ``> 0``, not an epsilon comparison.  The trust checks condition
  through it alone, by way of ``trust._require_negative_witness``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "WorldSpace",
    "Gamble",
    "Event",
    "ProbMass",
    "expectation",
]

#: The one slack tau.  A mass must sum to 1 within it, and
#: :func:`deference_lab.trust.check_global_trust` counts a class residual, an
#: entry of K' or a row sum of K' within it of zero as zero.  A global trust
#: verdict "holds" therefore means that this float scenario passes within
#: tau, not that its exact rational reading does.
SLACK = 1e-12


class ValidationError(ValueError):
    """A value violates its structural contract (shape, range, normalization)."""


def _frozen_array(values, name: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)  # a copy, which the caller cannot alias
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real vector, got {values!r}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-D real vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries: {arr.tolist()}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WorldSpace:
    """A finite set of n >= 1 distinctly labelled worlds."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.labels, str):
            raise ValidationError(
                f"world labels must be a sequence of labels, got {self.labels!r}"
            )
        labels = tuple(str(w) for w in self.labels)
        if len(labels) == 0:
            raise ValidationError("world space needs at least one world")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"world labels must be unique, got {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, n: int) -> "WorldSpace":
        """Default space with labels w1..wn."""
        if n < 1:
            raise ValidationError(f"world count must be >= 1, got {n}")
        return cls(tuple(f"w{i + 1}" for i in range(n)))


@dataclass(frozen=True, eq=False, slots=True)
class Gamble:
    """A real-valued payoff vector over the worlds (a random variable)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, "gamble"))

    @property
    def n(self) -> int:
        return self.values.size

    def shifted(self, t: float) -> "Gamble":
        """The gamble with t added to every payoff.

        A payoff that the shift carries past the largest float raises
        :class:`ValidationError`, without a numpy overflow warning.
        """
        with np.errstate(over="ignore"):
            values = self.values + float(t)
        if not np.isfinite(values).all():
            raise ValidationError(
                f"shifted gamble left float range: shift by {float(t)!r} of {self!r}"
            )
        return Gamble(values)

    def __neg__(self) -> "Gamble":
        return Gamble(-self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gamble):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Gamble({self.values.tolist()})"


def _world_index(i: object, n: int) -> int:
    """``i`` as an int world index in range for n worlds, like an event member."""
    try:
        index = operator.index(i)
    except TypeError:
        raise ValidationError(f"world index must be an integer, got {i!r}") from None
    if not 0 <= index < n:
        raise ValidationError(f"world index {index} out of range for n={n}")
    return index


@dataclass(frozen=True, slots=True)
class Event:
    """A subset of the n worlds, held as a frozenset of 0-based indices."""

    n: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        try:  # integers of any kind pass, a float or anything else raises
            n = operator.index(self.n)
            members = frozenset(map(operator.index, self.members))
        except TypeError:
            raise ValidationError(
                f"event needs integer n and members, got n={self.n!r}, members={self.members!r}"
            ) from None
        if n < 1:
            raise ValidationError(f"event needs a space of >= 1 worlds, got n={n}")
        if members and (min(members) < 0 or max(members) >= n):
            raise ValidationError(f"event members {sorted(members)} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __repr__(self) -> str:
        return f"Event(n={self.n}, members={self.sorted_members()})"


@dataclass(frozen=True, eq=False)
class ProbMass:
    """A probability mass function over the worlds.

    Weights must be in [0, 1] and sum to 1 within ``SLACK``.  A total that
    misses 1 by more than rounding (n ulps) is divided out once, so
    ``ProbMass(p.weights) == p`` bit for bit.  The induced expectation
    functional (see :func:`expectation`) is coherent by construction.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.weights, "probability mass")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError(f"mass weights must lie in [0, 1], got {arr.tolist()}")
        total = _ordered_sum(arr)
        if abs(total - 1.0) > SLACK:
            raise ValidationError(f"mass sums to {total!r}, expected 1 within {SLACK}")
        if abs(total - 1.0) > arr.size * 2.0**-52:
            arr = _frozen_array(arr / total, "probability mass")
        object.__setattr__(self, "weights", arr)

    @property
    def n(self) -> int:
        return self.weights.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbMass):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        return f"ProbMass({self.weights.tolist()})"


def _ordered_sum(values: np.ndarray) -> np.ndarray | float:
    """Sum over the last axis, strictly left to right, as a loop from 0.0 would.

    ``accumulate`` adds in order; ``+ 0.0`` turns an all -0.0 sum into +0.0.
    A vector sums to a float: its last partial sum is read as a scalar, so
    the ``+ 0.0`` is float arithmetic rather than a 0-d array operation.
    """
    partial = np.add.accumulate(values, axis=-1)
    if partial.ndim == 1:
        return float(partial[-1]) + 0.0
    return partial[..., -1] + 0.0


def _check_dims(p: ProbMass, x: Gamble) -> None:
    if p.n != x.n:
        raise ValidationError(f"dimension mismatch: mass has {p.n} worlds, gamble has {x.n}")


def expectation(p: ProbMass, x: Gamble) -> float:
    """The prevision of x under p: the dot product sum_i p(w_i) * x_i.

    Accumulated strictly left to right, so results are identical from run to
    run and equal, bit for bit, a Python loop adding one product at a time.
    """
    _check_dims(p, x)
    return _ordered_sum(p.weights * x.values)


def _conditional(
    weights: np.ndarray, values: np.ndarray, inside: np.ndarray
) -> tuple[float | None, float]:
    """``p(X | A)`` (None if undefined) and ``p(X 1_A)`` for the boolean mask ``inside``.

    Both sums run left to right over the products with the event's 0/1
    mask, as :func:`expectation` adds.  Conditioning on the full space
    returns the expectation itself, which is also ``p(X 1_A)`` bit for bit
    (``x * True == x``): the two are equal for a normalized mass, and
    taking the quotient would manufacture one ulp of noise exactly where
    downstream trust checks compare conditional values against
    unconditional ones.
    """
    if inside.all():
        value = _ordered_sum(weights * values)
        return value, value
    prob = _ordered_sum(weights * inside)
    partial = _ordered_sum(weights * (values * inside))
    return (partial / prob if prob > 0.0 else None), partial
