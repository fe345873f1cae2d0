"""Measure specs: structural admissibility and the symmetry check."""

import numpy as np
import pytest

from deference_lab import BumpPair, Gamble, MeasureSpec, ValidationError, measure_symmetry_check
from deference_lab.measures import MIN_BASE_WEIGHT
from deference_lab.sampling import chunk_rng


def _pair(center, scale=0.25, weight=0.5) -> BumpPair:
    return BumpPair(center=Gamble(center), scale=scale, weight=weight)


class TestMeasureSpec:
    def test_kind_derives_from_bumps(self):
        from deference_lab.cli import _measure_fragment

        assert _measure_fragment(MeasureSpec.gaussian(1.0))["kind"] == "gaussian"
        mixture = MeasureSpec.mixture(1.0, (_pair([1.0, 0.0]),))
        assert _measure_fragment(mixture)["kind"] == "mixture"

    def test_mixture_needs_bumps(self):
        with pytest.raises(ValidationError):
            MeasureSpec.mixture(1.0, ())

    def test_sigma_positive(self):
        with pytest.raises(ValidationError):
            MeasureSpec.gaussian(0.0)

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan")])
    def test_sigma_finite(self, sigma):
        with pytest.raises(ValidationError, match="positive and finite"):
            MeasureSpec.gaussian(sigma)

    @pytest.mark.parametrize("scale", [0.0, float("inf"), float("nan")])
    def test_bump_scale_positive_and_finite(self, scale):
        with pytest.raises(ValidationError, match="bump scale must be positive and finite"):
            _pair([1.0], scale=scale)

    def test_bump_weight_range(self):
        with pytest.raises(ValidationError):
            _pair([1.0], weight=1.0)
        with pytest.raises(ValidationError):
            _pair([1.0], weight=-0.1)

    def test_base_weight_floor(self):
        # Bumps may not squeeze the base Gaussian below its floor: the
        # density must stay strictly positive everywhere.
        with pytest.raises(ValidationError):
            MeasureSpec.mixture(1.0, (_pair([1.0], weight=0.6), _pair([2.0], weight=0.4)))
        spec = MeasureSpec.mixture(1.0, (_pair([1.0], weight=1.0 - 2 * MIN_BASE_WEIGHT),))
        assert spec.base_weight >= MIN_BASE_WEIGHT

    def test_dimension_consistency(self):
        with pytest.raises(ValidationError):
            MeasureSpec.mixture(1.0, (_pair([1.0, 0.0]), _pair([1.0, 0.0, 0.0])))
        spec = MeasureSpec.mixture(1.0, (_pair([1.0, 0.0]),))
        with pytest.raises(ValidationError):
            spec.components(3)

    def test_components_split_every_bump_into_halves(self):
        spec = MeasureSpec.mixture(2.0, (_pair([1.0, -1.0], scale=0.1, weight=0.5),))
        weights, means, scales = spec.components(2)
        assert weights.tolist() == [0.5, 0.25, 0.25]
        assert means.tolist() == [[0.0, 0.0], [1.0, -1.0], [-1.0, 1.0]]
        assert scales.tolist() == [2.0, 0.1, 0.1]

    def test_total_mass_is_one(self):
        spec = MeasureSpec.mixture(1.0, (_pair([3.0], weight=0.7),))
        weights, _, _ = spec.components(1)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-15)


class TestSampling:
    def test_deterministic(self):
        spec = MeasureSpec.mixture(1.0, (_pair([2.0, 2.0], weight=0.6),))
        draw = spec.sampler(2)
        a = draw(chunk_rng(5, 0), 1_000)
        b = draw(chunk_rng(5, 0), 1_000)
        assert np.array_equal(a, b)

    def test_component_frequencies(self):
        spec = MeasureSpec.mixture(1.0, (_pair([10.0, 10.0], scale=0.1, weight=0.5),))
        xs = spec.sampler(2)(chunk_rng(0, 0), 40_000)
        near_plus = np.all(np.abs(xs - 10.0) < 2.0, axis=1).mean()
        near_minus = np.all(np.abs(xs + 10.0) < 2.0, axis=1).mean()
        assert near_plus == pytest.approx(0.25, abs=0.01)
        assert near_minus == pytest.approx(0.25, abs=0.01)

    def test_sample_mean_is_centered(self):
        spec = MeasureSpec.mixture(1.0, (_pair([5.0, -5.0], weight=0.8),))
        xs = spec.sampler(2)(chunk_rng(1, 0), 50_000)
        assert np.abs(xs.mean(axis=0)).max() < 0.1


class _UnpairedBump:
    """Inadmissible by construction: all bump mass on one side (test-only)."""

    def __init__(self, center, scale=0.5, weight=0.7, sigma=1.0):
        self.center = np.asarray(center, dtype=float)
        self.scale = scale
        self.weight = weight
        self.sigma = sigma

    def sampler(self, dim):
        def draw(rng, m):
            pick = rng.random(m) < self.weight
            z = rng.standard_normal((m, dim))
            out = z * self.sigma
            out[pick] = z[pick] * self.scale + self.center
            return out

        return draw

    def spread(self, dim):
        return max(self.sigma, float(np.max(np.abs(self.center))) + 3 * self.scale)


class TestSymmetryCheck:
    def test_pure_gaussian_passes(self):
        report = measure_symmetry_check(MeasureSpec.gaussian(1.0), 2, 12, 20_000, seed=0)
        assert report.passed
        assert report.max_sigma_ratio <= report.threshold_sigmas

    def test_bump_pair_mixture_passes(self):
        spec = MeasureSpec.mixture(1.0, (_pair([1.5, -0.5], scale=0.3, weight=0.6),))
        report = measure_symmetry_check(spec, 2, 12, 20_000, seed=1)
        assert report.passed

    def test_unpaired_bump_fails(self):
        broken = _UnpairedBump([4.0, -4.0])
        report = measure_symmetry_check(broken, 2, 12, 20_000, seed=2)
        assert not report.passed
        assert report.max_sigma_ratio > report.threshold_sigmas

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            measure_symmetry_check(MeasureSpec.gaussian(1.0), 2, 0, 100, seed=0)
