"""Measure specs: structural admissibility, pinned exactly, and the chunk draw."""

import math
import sys

import numpy as np
import pytest

from deference_lab import BumpPair, Gamble, MeasureSpec, ValidationError
from deference_lab.measures import MIN_BASE_WEIGHT
from deference_lab.sampling import CHUNK_SIZE, chunk_rng
from oracles import assert_negation_symmetric, component_pick_sampler, random_measure


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

    def test_scales_stop_where_draws_could_overflow(self):
        # |z| < 16, so 16 scale + max |center| must stay finite.
        top = sys.float_info.max / 16.0
        MeasureSpec.gaussian(top)
        with pytest.raises(ValidationError, match="and so must its draws"):
            MeasureSpec.gaussian(np.nextafter(top, math.inf))
        _pair([1e300, -1.0], scale=top / 2.0)
        with pytest.raises(ValidationError, match="and so must its draws"):
            _pair([-1e308, 1.0], scale=top / 2.0)

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
        # The floor itself is admissible, with nothing lost to rounding...
        spec = MeasureSpec.mixture(1.0, (_pair([1.0], weight=1.0 - MIN_BASE_WEIGHT),))
        assert spec.base_weight == MIN_BASE_WEIGHT
        # ...and one ulp more bump mass is not.
        heavier = float(np.nextafter(1.0 - MIN_BASE_WEIGHT, 2.0))
        with pytest.raises(ValidationError, match="must keep at least"):
            MeasureSpec.mixture(1.0, (_pair([1.0], weight=heavier),))

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

    def test_components_are_negation_symmetric(self):
        specs = [
            (MeasureSpec.gaussian(0.3), 3),
            (MeasureSpec.mixture(0.7, (_pair([0.0, -0.0, 2.5], weight=0.0),)), 3),
            (
                MeasureSpec.mixture(
                    1.3,
                    (
                        _pair([1.0, -0.0, 0.0], scale=0.1, weight=0.3),
                        _pair([-2.0, 5e-324, 1e300], scale=2.0, weight=0.0),
                        _pair([0.1, 0.2, -0.3], scale=0.7, weight=0.2),
                    ),
                ),
                3,
            ),
        ]
        rng = np.random.default_rng(13)
        specs += [(random_measure(rng, dim), dim) for dim in range(1, 10) for _ in range(4)]
        for spec, dim in specs:
            assert_negation_symmetric(spec, dim)

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


#: (seed, chunk index) pairs the draw tests cycle through.
_STREAMS = [(0, 0), (1, 3), (12345, 1), (2**40 + 7, 17), (99, 250)]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestOneComponentDraw:
    """A plain Gaussian skips the component pick without moving a bit."""

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_matches_the_component_pick_oracle(self, dim):
        case = 0
        for sigma in (2.0**-20, 0.3, 1.0, 1.7):
            spec = MeasureSpec.gaussian(sigma)
            fast, slow = spec.sampler(dim), component_pick_sampler(spec, dim)
            for m in (1, 7, 50_000, CHUNK_SIZE, CHUNK_SIZE + 123):
                seed, j = _STREAMS[(dim + case) % len(_STREAMS)]
                case += 1
                assert _same_bits(fast(chunk_rng(seed, j), m), slow(chunk_rng(seed, j), m))

    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_zero_weight_bump_keeps_the_pick(self, dim):
        # A zero-weight bump and random mixtures all draw through the pick,
        # bit for bit as the oracle does: the sampler draws from exactly the
        # components test_components_are_negation_symmetric pins.
        rng = np.random.default_rng(dim)
        specs = [MeasureSpec.mixture(0.7, (_pair(np.linspace(-1.0, 2.0, dim), weight=0.0),))]
        specs += [random_measure(rng, dim) for _ in range(3)]
        for spec in specs:
            for seed, j in _STREAMS:
                rng_a, rng_b = chunk_rng(seed, j), chunk_rng(seed, j)
                assert _same_bits(
                    spec.sampler(dim)(rng_a, 5_000), component_pick_sampler(spec, dim)(rng_b, 5_000)
                )

    def test_chunk_rng_is_pcg64(self):
        for seed, j in _STREAMS:
            assert isinstance(chunk_rng(seed, j).bit_generator, np.random.PCG64)

    @pytest.mark.parametrize("m", [1, 3, CHUNK_SIZE])
    def test_random_takes_one_word_per_double(self, m):
        for seed, j in _STREAMS:
            drawn, advanced = chunk_rng(seed, j), chunk_rng(seed, j)
            drawn.random(m)
            advanced.bit_generator.advance(m)
            assert drawn.bit_generator.state == advanced.bit_generator.state


class _ChosenDraws:
    """A generator stand-in: chosen uniforms, then fixed normals."""

    def __init__(self, uniforms: np.ndarray):
        self.uniforms = uniforms

    def random(self, m: int) -> np.ndarray:
        assert m == self.uniforms.size
        return self.uniforms.copy()

    def standard_normal(self, shape: tuple[int, int]) -> np.ndarray:
        return np.sin(np.arange(1.0, shape[0] * shape[1] + 1.0)).reshape(shape)


class TestMixturePick:
    """The counted pick against the oracle's clipped ``searchsorted``."""

    DIM = 3

    def _assert_pick_matches(self, spec: MeasureSpec, rng: np.random.Generator) -> None:
        edges = np.cumsum(spec.components(self.DIM)[0])
        uniforms = np.concatenate(
            [
                [0.0, np.nextafter(1.0, 0.0)],
                edges[edges < 1.0],  # random() is in [0, 1): never an edge of 1.0
                np.nextafter(edges, 0.0),
                rng.random(64),
            ]
        )
        fast = spec.sampler(self.DIM)(_ChosenDraws(uniforms), uniforms.size)
        slow = component_pick_sampler(spec, self.DIM)(_ChosenDraws(uniforms), uniforms.size)
        assert _same_bits(fast, slow)

    @pytest.mark.parametrize("components", [3, 5, 9, 17, 33, 65])
    def test_on_and_below_every_edge(self, components):
        rng = np.random.default_rng(components)
        for _ in range(4):
            spec = random_measure(rng, self.DIM, pairs=(components - 1) // 2)
            assert len(spec.components(self.DIM)[0]) == components
            self._assert_pick_matches(spec, rng)

    def test_zero_weight_bump_gives_duplicate_edges(self):
        bumps = (_pair([1.0, 2.0, 3.0], weight=0.3), _pair([-1.0, 0.5, 2.0], weight=0.0))
        spec = MeasureSpec.mixture(0.8, bumps + (_pair([0.0, -2.0, 1.0], weight=0.2),))
        edges = np.cumsum(spec.components(self.DIM)[0])
        assert np.unique(edges).size < edges.size
        self._assert_pick_matches(spec, np.random.default_rng(1))

    def test_last_edge_below_one(self):
        # Halves of 0.15 after a base of 0.85 sum to the float below 1.0, so
        # the uniform 1 - 2**-53 sits on the last edge and picks the last
        # component only through the clip.
        spec = MeasureSpec.mixture(1.0, (_pair([1.0, -1.0, 0.5], weight=0.15),))
        edges = np.cumsum(spec.components(self.DIM)[0])
        assert edges[-1] == np.nextafter(1.0, 0.0)
        self._assert_pick_matches(spec, np.random.default_rng(2))
