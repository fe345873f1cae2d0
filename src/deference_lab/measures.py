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

Admissibility is thus structural, and no runtime check samples for it;
the test suite pins it exactly, bit for bit, on the ``components`` every
sampler draws from.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import Gamble, ValidationError
from .sampling import DrawFn

__all__ = ["BumpPair", "MeasureSpec"]

#: Smallest base-Gaussian weight a mixture may carry; keeps the density
#: strictly positive everywhere no matter how much mass the bumps take.
MIN_BASE_WEIGHT = 2.0**-20

#: Numpy's ziggurat normals have |z| < r + 53 ln 2 / r < 13.71 (r = 3.654 starts
#: the tail, whose uniforms stay 2**-53 from 1), so z * scale + center is finite
#: whenever 16 * scale + max |center| is: rounding is monotone.
_Z_BOUND = 16.0


@dataclass(frozen=True)
class BumpPair:
    """Equal halves of Gaussian mass at +center and -center, shared scale."""

    center: Gamble
    scale: float
    weight: float

    def __post_init__(self) -> None:
        reach = float(self.scale) * _Z_BOUND + float(np.abs(self.center.values).max())
        if not (self.scale > 0.0 and reach <= sys.float_info.max):
            raise ValidationError(
                f"bump scale must be positive and finite, and so must its draws, got {self.scale}"
            )
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
        if not (self.sigma > 0.0 and float(self.sigma) * _Z_BOUND <= sys.float_info.max):
            raise ValidationError(
                f"sigma must be positive and finite, and so must its draws, got {self.sigma}"
            )
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

    def components(self, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weights, means, scales) with every bump split into its +/- halves."""
        pinned = self.bumps[0].center.n if self.bumps else dim
        if pinned != dim:
            raise ValidationError(f"measure is {pinned}-dimensional, asked to sample in {dim}")
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
        """Chunk-sampler: pick a component by weight, then one Gaussian draw.

        Each chunk's stream is laid out as m uniforms for the component
        pick, then m*dim standard normals.  A one-component measure (a plain
        Gaussian) needs no pick, so it skips the m uniforms with the bit
        generator's ``advance`` and draws the very same normals: not a bit
        of the sample moves.

        A uniform u picks the component whose index is the number of
        cumulative-weight edges ``<= u`` among all but the last.  The edges
        never decrease, so that count is ``searchsorted(edges, u, "right")``
        clipped to K - 1 for K components, with no binary search; the clip
        matters when the last edge rounds below 1.0 and u reaches it.
        Counting costs one pass per edge, and beats the binary search up to
        about 65 components, where the two tie; mixtures here have 3 to 5.
        The index takes the smallest unsigned type that holds K - 1 (one
        byte below 257 components), and the m uniforms are dropped before
        the normals are drawn.

        ``draw(rng, m)`` returns the whole (m, dim) sample.  It is two steps,
        which the draw also exposes: ``draw.normals(rng, m)`` reads the
        stream and returns ``(which, z)``, the picked indices (None for one
        component) and the m x dim unit normals; ``draw.place(which, z,
        out)`` writes the measure's gambles ``z * scale + mean`` of the
        picked components into ``out`` and returns it.  Placement is row by
        row, so placing a slice of rows gives that slice of the whole
        sample, and ``out`` may be ``z`` itself.  ``draw.picks`` says whether
        the draw picks a component: when it does not, ``place(None, z,
        out)`` needs only the normals, which a mixture's stream shares.

        The draw carries its content as a key (dim and the exact bytes of
        the components) for the memo of :mod:`deference_lab.sampling`.
        """
        weights, means, scales = self.components(dim)

        if len(weights) == 1:
            sigma = self.sigma

            def normals(rng: np.random.Generator, m: int) -> tuple[None, np.ndarray]:
                # m uniforms are m PCG64 words: test_measures.py::TestOneComponentDraw
                rng.bit_generator.advance(m)
                return None, rng.standard_normal((m, dim))

            def place(which: None, z: np.ndarray, out: np.ndarray) -> np.ndarray:
                np.multiply(z, sigma, out=out)
                out += 0.0  # the zero mean: turns -0.0 into +0.0, as the pick path does
                return out

        else:
            inner_edges = np.cumsum(weights)[:-1]
            index_type = np.min_scalar_type(len(weights) - 1)

            def pick(u: np.ndarray) -> np.ndarray:
                which = np.zeros(len(u), dtype=index_type)
                for edge in inner_edges:
                    which += u >= edge
                return which

            def normals(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
                which = pick(rng.random(m))  # the uniforms die before the normals exist
                return which, rng.standard_normal((m, dim))

            def place(which: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
                np.multiply(z, np.take(scales, which)[:, None], out=out)
                out += np.take(means, which, axis=0)
                return out

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            which, z = normals(rng, m)
            return place(which, z, z)

        draw.normals = normals
        draw.place = place
        draw.picks = len(weights) > 1
        draw._memo_key = (dim, weights.tobytes(), means.tobytes(), scales.tobytes())
        return draw
