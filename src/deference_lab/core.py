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
  and estimates are bit-reproducible across runs.
* ``conditional_expectation`` treats zero-probability conditioning events as
  *undefined* (returns ``None``), never as zero; the definedness test is an
  exact ``> 0``, not an epsilon comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "WorldSpace",
    "Gamble",
    "Event",
    "ProbMass",
    "expectation",
    "event_probability",
    "indicator",
    "conditional_expectation",
]

#: Construction tolerance for probability mass normalization.
MASS_TOL = 1e-12


class ValidationError(ValueError):
    """A value violates its structural contract (shape, range, normalization)."""


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-D real vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries: {arr.tolist()}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WorldSpace:
    """A finite set of n >= 1 distinctly labelled worlds."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
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
        """The gamble with t added to every payoff."""
        return Gamble(self.values + float(t))

    def scaled(self, c: float) -> "Gamble":
        return Gamble(self.values * float(c))

    def __neg__(self) -> "Gamble":
        return Gamble(-self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gamble):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Gamble({self.values.tolist()})"


@dataclass(frozen=True, slots=True)
class Event:
    """A subset of the n worlds, held as a frozenset of 0-based indices."""

    n: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"event needs a space of >= 1 worlds, got n={self.n}")
        members = frozenset(int(i) for i in self.members)
        if any(i < 0 or i >= self.n for i in members):
            raise ValidationError(f"event members {sorted(members)} out of range for n={self.n}")
        object.__setattr__(self, "members", members)

    @classmethod
    def full(cls, n: int) -> "Event":
        return cls(n, frozenset(range(n)))

    @classmethod
    def empty(cls, n: int) -> "Event":
        return cls(n, frozenset())

    def complement(self) -> "Event":
        return Event(self.n, frozenset(range(self.n)) - self.members)

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

    Weights must be in [0, 1] and sum to 1 within ``MASS_TOL``; they are then
    renormalized exactly once at construction so every downstream sum works
    from the same, consistent vector.  The induced expectation functional
    (see :func:`expectation`) is coherent by construction.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.weights, "probability mass")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError(f"mass weights must lie in [0, 1], got {arr.tolist()}")
        total = _left_to_right_sum(arr)
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"mass sums to {total!r}, expected 1 within {MASS_TOL}")
        normalized = arr / total
        normalized.flags.writeable = False
        object.__setattr__(self, "weights", normalized)

    @property
    def n(self) -> int:
        return self.weights.size

    @classmethod
    def ideal(cls, n: int, i: int) -> "ProbMass":
        """The point mass at world i (the ideal prevision there)."""
        w = np.zeros(n)
        w[i] = 1.0
        return cls(w)

    @classmethod
    def uniform(cls, n: int) -> "ProbMass":
        return cls(np.full(n, 1.0 / n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbMass):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        return f"ProbMass({self.weights.tolist()})"


def _left_to_right_sum(values: np.ndarray) -> float:
    acc = 0.0
    for v in values:
        acc += float(v)
    return acc


def _check_dims(p: ProbMass, x: Gamble) -> None:
    if p.n != x.n:
        raise ValidationError(f"dimension mismatch: mass has {p.n} worlds, gamble has {x.n}")


def expectation(p: ProbMass, x: Gamble) -> float:
    """The prevision of x under p: the dot product sum_i p(w_i) * x_i.

    Accumulated strictly left to right so results are identical from run to
    run and so that :func:`event_probability` agrees with it bit for bit.
    """
    _check_dims(p, x)
    acc = 0.0
    for w, v in zip(p.weights, x.values):
        acc += float(w) * float(v)
    return acc


def indicator(a: Event) -> Gamble:
    """The 0/1 gamble paying 1 exactly on the members of the event."""
    values = np.zeros(a.n)
    for i in a.members:
        values[i] = 1.0
    return Gamble(values)


def event_probability(p: ProbMass, a: Event) -> float:
    """Probability of the event: the prevision of its indicator gamble.

    Implemented literally as ``expectation(p, indicator(a))`` so the two are
    equal by construction, not merely up to rounding.
    """
    if p.n != a.n:
        raise ValidationError(f"dimension mismatch: mass has {p.n} worlds, event has {a.n}")
    return expectation(p, indicator(a))


def conditional_expectation(p: ProbMass, x: Gamble, a: Event) -> float | None:
    """The conditional prevision of x given the event, or None if undefined.

    Defined exactly when the event has strictly positive probability, in
    which case it equals ``expectation(p, x * 1_A) / p(A)``.  A
    zero-probability event yields ``None`` -- undefined is a distinguished
    result here, not an error and not zero.

    Conditioning on the full space returns ``expectation(p, x)`` itself:
    the two are equal for a normalized mass, and taking the quotient would
    manufacture one ulp of noise exactly where downstream trust checks
    compare conditional values against unconditional ones.
    """
    _check_dims(p, x)
    if len(a.members) == a.n:
        return expectation(p, x)
    prob = event_probability(p, a)
    if not prob > 0.0:
        return None
    restricted = Gamble(x.values * indicator(a).values)
    return expectation(p, restricted) / prob
