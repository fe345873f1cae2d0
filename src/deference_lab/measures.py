"""Symmetric, everywhere-positive sampling measures for the score integrals.

Every score in :mod:`deference_lab.accuracy` is an integral against a
measure that must be (i) absolutely continuous with respect to Lebesgue
measure, (ii) positive on every open set, and (iii) symmetric under
negation.  :class:`MeasureSpec` can only express measures with those three
properties, by construction:

* the base component is a centered spherical Gaussian with strictly
  positive weight, which alone secures (i) and (ii);
* every extra component is a *pair* of equal-weight Gaussian bumps at
  ``+center`` and ``-center`` with a shared scale, so the density is
  negation-symmetric term by term, securing (iii).

Total mass is normalized to one.  The admissibility conditions do not pin
the normalization, and none of the sign conclusions drawn from the scores
depend on positive scaling, so a probability measure is the well-posed
choice for Monte-Carlo work.

:func:`measure_symmetry_check` estimates ``mu(B)`` against ``mu(-B)`` on
random boxes; it exists to catch violations of (iii) in anything claiming
to be admissible (its negative control in the test suite is an unpaired
bump, which the public type cannot represent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Gamble, ValidationError
from .sampling import DrawFn, chunk_rng

__all__ = ["BumpPair", "MeasureSpec", "SymmetryReport", "measure_symmetry_check"]

#: Smallest base-Gaussian weight a mixture may carry; keeps the density
#: strictly positive everywhere no matter how much mass the bumps take.
MIN_BASE_WEIGHT = 2.0**-20

# Box-mass discrepancies beyond this many standard errors fail the check.
_THRESHOLD_SIGMAS = 4.0


@dataclass(frozen=True)
class BumpPair:
    """Equal halves of Gaussian mass at +center and -center, shared scale."""

    center: Gamble
    scale: float
    weight: float

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValidationError(f"bump scale must be positive and finite, got {self.scale}")
        if not 0.0 <= self.weight < 1.0:
            raise ValidationError(f"bump weight must lie in [0, 1), got {self.weight}")


@dataclass(frozen=True)
class MeasureSpec:
    """A probability measure: base Gaussian plus symmetric bump pairs.

    A spec without bumps is the plain Gaussian; one with bumps is a mixture.
    """

    sigma: float
    bumps: tuple[BumpPair, ...] = ()

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        bumps = tuple(self.bumps)
        if bumps:
            dims = {b.center.n for b in bumps}
            if len(dims) != 1:
                raise ValidationError(f"bump centers disagree on dimension: {sorted(dims)}")
        total = sum(b.weight for b in bumps)
        if 1.0 - total < MIN_BASE_WEIGHT:
            raise ValidationError(
                f"bump weights sum to {total}; the base gaussian must keep at least "
                f"{MIN_BASE_WEIGHT} of the mass"
            )
        object.__setattr__(self, "bumps", bumps)

    @classmethod
    def gaussian(cls, sigma: float) -> "MeasureSpec":
        return cls(sigma=sigma)

    @classmethod
    def mixture(cls, sigma: float, bumps: tuple[BumpPair, ...]) -> "MeasureSpec":
        bumps = tuple(bumps)
        if not bumps:
            raise ValidationError("a mixture measure needs at least one bump pair")
        return cls(sigma=sigma, bumps=bumps)

    @property
    def base_weight(self) -> float:
        return 1.0 - sum(b.weight for b in self.bumps)

    @property
    def dim(self) -> int | None:
        """Dimension pinned by the bump centers; None for a plain Gaussian."""
        return self.bumps[0].center.n if self.bumps else None

    def components(self, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weights, means, scales) with every bump split into its +/- halves."""
        if self.dim is not None and self.dim != dim:
            raise ValidationError(f"measure is {self.dim}-dimensional, asked to sample in {dim}")
        weights = [self.base_weight]
        means = [np.zeros(dim)]
        scales = [self.sigma]
        for bump in self.bumps:
            for sign in (1.0, -1.0):
                weights.append(bump.weight / 2.0)
                means.append(sign * bump.center.values)
                scales.append(bump.scale)
        return np.asarray(weights), np.vstack(means), np.asarray(scales)

    def sampler(self, dim: int) -> DrawFn:
        """Chunk-sampler: pick a component by weight, then one Gaussian draw."""
        weights, means, scales = self.components(dim)
        edges = np.cumsum(weights)

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            which = np.searchsorted(edges, rng.random(m), side="right")
            which = np.minimum(which, len(weights) - 1)  # guard u == 1.0 rounding
            z = rng.standard_normal((m, dim))
            return z * scales[which, None] + means[which]

        return draw

    def spread(self, dim: int) -> float:
        """A length scale covering where the measure puts noticeable mass."""
        reach = self.sigma
        for bump in self.bumps:
            reach = max(reach, float(np.max(np.abs(bump.center.values))) + 3.0 * bump.scale)
        return reach


@dataclass(frozen=True)
class SymmetryReport:
    """Worst observed box-mass asymmetry, in absolute and standard-error terms."""

    max_discrepancy: float
    max_sigma_ratio: float
    threshold_sigmas: float
    trials: int
    passed: bool


def measure_symmetry_check(
    measure, dim: int, trials: int, samples: int, seed: int
) -> SymmetryReport:
    """Compare estimated masses of random boxes B against their mirrors -B.

    For each trial an axis-aligned box is drawn from two Gaussian corners
    scaled to the measure's spread; ``mu(B)`` and ``mu(-B)`` are estimated
    from independent batches of ``samples`` draws each.  The check passes
    when every trial's discrepancy stays within four times the combined
    standard error.  Anything exposing ``sampler(dim)`` and
    ``spread(dim)`` can be checked, admissible or not.
    """
    if trials < 1 or samples < 1:
        raise ValidationError("trials and samples must both be >= 1")
    draw = measure.sampler(dim)
    scale = measure.spread(dim)
    box_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))

    worst_abs = 0.0
    worst_ratio = 0.0
    passed = True
    for trial in range(trials):
        a = box_rng.normal(0.0, scale, dim)
        b = box_rng.normal(0.0, scale, dim)
        lower, upper = np.minimum(a, b), np.maximum(a, b)

        def mass(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
            inside = np.all((points >= lo) & (points <= hi), axis=1)
            p = float(np.count_nonzero(inside)) / len(points)
            return p, float(np.sqrt(p * (1.0 - p) / len(points)))

        direct = draw(chunk_rng(seed, 2 * trial + 1), samples)
        mirror = draw(chunk_rng(seed, 2 * trial + 2), samples)
        p_box, se_box = mass(direct, lower, upper)
        p_mirror, se_mirror = mass(mirror, -upper, -lower)

        gap = abs(p_box - p_mirror)
        combined = float(np.hypot(se_box, se_mirror))
        worst_abs = max(worst_abs, gap)
        if combined > 0.0:
            worst_ratio = max(worst_ratio, gap / combined)
        elif gap > 0.0:
            worst_ratio = float("inf")
        if gap > _THRESHOLD_SIGMAS * combined:
            passed = False

    return SymmetryReport(
        max_discrepancy=worst_abs,
        max_sigma_ratio=worst_ratio,
        threshold_sigmas=_THRESHOLD_SIGMAS,
        trials=trials,
        passed=passed,
    )
