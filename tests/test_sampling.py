"""Determinism contracts of the chunked Monte-Carlo plumbing."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from deference_lab import (
    BumpPair,
    Gamble,
    MeasureSpec,
    ProbMass,
    Scenario,
    ValidationError,
    estimate_ae_trust,
    expected_gap,
    inaccuracy_mc,
    rhs_identity,
    sampling,
)
from deference_lab.cli import main
from deference_lab.sampling import (
    CHUNK_SIZE,
    ScoreEstimate,
    gaussian_draw,
    mc_estimate,
    mc_frequency,
    thread_count,
)
from oracles import random_measure, random_scenario


def _norms(xs: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(xs**2, axis=1))


class TestMcEstimate:
    def test_deterministic_given_seed(self):
        draw = gaussian_draw(3, 1.0)
        a = mc_estimate(draw, _norms, 50_000, seed=11)
        b = mc_estimate(draw, _norms, 50_000, seed=11)
        assert a == b

    def test_seed_changes_result(self):
        draw = gaussian_draw(3, 1.0)
        a = mc_estimate(draw, _norms, 10_000, seed=1)
        b = mc_estimate(draw, _norms, 10_000, seed=2)
        assert a.value != b.value

    def test_spans_chunk_boundaries_consistently(self):
        # Crossing a chunk boundary must not disturb the earlier chunks:
        # the first CHUNK_SIZE samples are the same stream either way.
        draw = gaussian_draw(2, 1.0)
        small = mc_estimate(draw, _norms, CHUNK_SIZE, seed=5)
        large = mc_estimate(draw, _norms, CHUNK_SIZE + 123, seed=5)
        assert small.samples == CHUNK_SIZE
        assert large.samples == CHUNK_SIZE + 123
        assert small.value != large.value  # extra partial chunk was included

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        draw = gaussian_draw(4, 2.0)
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        serial = mc_estimate(draw, _norms, 3 * CHUNK_SIZE + 17, seed=9)
        monkeypatch.setenv("DEFLAB_THREADS", "4")
        threaded = mc_estimate(draw, _norms, 3 * CHUNK_SIZE + 17, seed=9)
        assert serial == threaded

    def test_gaussian_mean_and_se_are_sane(self):
        draw = gaussian_draw(1, 1.0)
        est = mc_estimate(draw, lambda xs: xs[:, 0], 200_000, seed=3)
        assert abs(est.value) < 5 * est.std_error
        assert est.std_error == pytest.approx(1.0 / np.sqrt(200_000), rel=0.05)

    def test_constant_zero_integrand_is_exact(self):
        draw = gaussian_draw(2, 1.0)
        est = mc_estimate(draw, lambda xs: np.zeros(len(xs)), 10_000, seed=0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            mc_estimate(gaussian_draw(1, 1.0), _norms, 0, seed=0)


class TestMcFrequency:
    def test_exact_zero_and_one(self):
        draw = gaussian_draw(1, 1.0)
        never = mc_frequency(draw, lambda xs: np.zeros(len(xs), dtype=bool), 1_000, 0)
        always = mc_frequency(draw, lambda xs: np.ones(len(xs), dtype=bool), 1_000, 0)
        assert (never.value, never.std_error) == (0.0, 0.0)
        assert (always.value, always.std_error) == (1.0, 0.0)

    def test_binomial_standard_error(self):
        draw = gaussian_draw(1, 1.0)
        est = mc_frequency(draw, lambda xs: xs[:, 0] > 0.0, 40_000, seed=2)
        assert est.value == pytest.approx(0.5, abs=0.02)
        f = est.value
        assert est.std_error == pytest.approx(np.sqrt(f * (1 - f) / 40_000))

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        draw = gaussian_draw(2, 1.0)
        hits = lambda xs: xs[:, 0] > xs[:, 1]
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        serial = mc_frequency(draw, hits, 2 * CHUNK_SIZE + 5, seed=4)
        monkeypatch.setenv("DEFLAB_THREADS", "3")
        threaded = mc_frequency(draw, hits, 2 * CHUNK_SIZE + 5, seed=4)
        assert serial == threaded


class TestThreadCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("DEFLAB_THREADS", raising=False)
        assert thread_count() == 1

    @pytest.mark.parametrize("raw", ["1", "2", " 3 "])
    def test_positive_integers_are_taken(self, raw, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", raw)
        assert thread_count() == int(raw)

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "", "1.5", "two"])
    def test_malformed_values_raise(self, raw, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", raw)
        with pytest.raises(ValidationError, match="DEFLAB_THREADS must be a positive integer"):
            thread_count()


class TestScoreEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreEstimate(value=0.0, std_error=-1.0, samples=10, seed=0)
        with pytest.raises(ValueError):
            ScoreEstimate(value=0.0, std_error=0.0, samples=0, seed=0)


# ---------------------------------------------------------------------------
# Golden estimator bits and the draw memo
# ---------------------------------------------------------------------------

#: Two full chunks and a partial one.
PIN_SAMPLES = 2 * CHUNK_SIZE + 123
PIN_SEED = 17
PIN_WORLD = 3

#: float.hex of (value, std_error), captured before the draw memo existed;
#: identical at DEFLAB_THREADS 1 and 2.
PINS = {
    ("gaussian", "gap"): ("0x1.92fd098867d42p-3", "0x1.c70e6bfe7dcf4p-11"),
    ("gaussian", "identity"): ("0x1.92fd098867d42p-3", "0x1.c70e6bfe7dcf4p-11"),
    ("gaussian", "inaccuracy"): ("0x1.a23c79b72a527p-4", "0x1.9d736e218c399p-11"),
    ("mixture", "gap"): ("0x1.1fa139da0879fp-3", "0x1.3d858805cc337p-11"),
    ("mixture", "identity"): ("0x1.1fa139da0879fp-3", "0x1.3d858805cc337p-11"),
    ("mixture", "inaccuracy"): ("0x1.cc79252e15fa4p-3", "0x1.5d43eecf30b25p-10"),
    ("ae",): ("0x1.a41514ef78789p-2", "0x1.63fd5b5812de2p-10"),
}

SCORE_SCENARIO = {
    "worlds": ["w1", "w2"],
    "agent": [0.3, 0.7],
    "expert": [[0.1, 0.9], [0.4, 0.6]],
}


def _pin_setup() -> tuple[Scenario, dict[str, MeasureSpec]]:
    rng = np.random.default_rng(8)
    n = 8
    scenario = Scenario.from_weights(
        rng.dirichlet(np.ones(n)), [rng.dirichlet(np.ones(n)) for _ in range(n)]
    )
    mixture = MeasureSpec.mixture(
        1.25,
        (
            BumpPair(Gamble(rng.normal(0.0, 2.0, n)), 0.5, 0.3),
            BumpPair(Gamble(rng.normal(0.0, 2.0, n)), 0.75, 0.2),
        ),
    )
    return scenario, {"gaussian": MeasureSpec.gaussian(1.5), "mixture": mixture}


def _bits(estimate: ScoreEstimate) -> tuple[str, str]:
    return estimate.value.hex(), estimate.std_error.hex()


def _pinned_bundle(scenario: Scenario, name: str, mu: MeasureSpec) -> dict:
    args = (PIN_SAMPLES, PIN_SEED)
    return {
        (name, "gap"): _bits(expected_gap(scenario, mu, *args)),
        (name, "identity"): _bits(rhs_identity(scenario, mu, *args)),
        (name, "inaccuracy"): _bits(inaccuracy_mc(scenario.agent, PIN_WORLD, mu, *args)),
    }


class TestGoldenBits:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_estimators_match_pins(self, threads, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario, measures = _pin_setup()
        got = {}
        for name, mu in measures.items():
            got.update(_pinned_bundle(scenario, name, mu))
        got[("ae",)] = _bits(estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED))
        assert got == PINS

    #: sha256 over the (value, std_error) hex of ``_digest_lines``.
    DIGEST = "a2a48ee4dd71892c4414a917aa3dc9d188d2a6fe0b3d22c1330ff2abb6308508"

    @staticmethod
    def _digest_lines() -> list[str]:
        """Every estimator at n = 2, 5, 9 under a Gaussian and a mixture."""
        samples, seed = CHUNK_SIZE + 123, 29
        lines = []
        for n in (2, 5, 9):
            rng = np.random.default_rng([n, 23])
            scenario = random_scenario(rng, n)
            measures = {"gaussian": MeasureSpec.gaussian(1.5), "mixture": random_measure(rng, n)}
            for name, mu in measures.items():
                for label, estimate in (
                    ("gap", expected_gap(scenario, mu, samples, seed)),
                    ("identity", rhs_identity(scenario, mu, samples, seed)),
                    ("inaccuracy", inaccuracy_mc(scenario.agent, n // 2, mu, samples, seed)),
                ):
                    lines.append(f"{n} {name} {label} {' '.join(_bits(estimate))}")
            ae = estimate_ae_trust(scenario, 1.5, samples, seed)
            lines.append(f"{n} ae {' '.join(_bits(ae))}")
        return lines

    def test_seeded_estimators_digest(self, monkeypatch):
        digests = set()
        for threads in ("1", "2"):
            monkeypatch.setenv("DEFLAB_THREADS", threads)
            monkeypatch.setattr(sampling, "_memo", None)
            lines = "\n".join(self._digest_lines())
            digests.add(hashlib.sha256(lines.encode()).hexdigest())
        assert digests == {self.DIGEST}

    def test_python_threads_on_different_measures_keep_the_pins(self):
        # Four callers on two cores, switching often, keep replacing each
        # other's memo; a torn or mismatched entry would change a bit.
        scenario, measures = _pin_setup()
        names = list(measures) * 2
        start = threading.Barrier(len(names))
        results: list[list[dict]] = [[] for _ in names]

        def run(slot: int) -> None:
            start.wait()
            for _ in range(3):
                name = names[slot]
                results[slot].append(_pinned_bundle(scenario, name, measures[name]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=run, args=(slot,)) for slot in range(len(names))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for name, runs in zip(names, results):
            assert runs == [{k: v for k, v in PINS.items() if k[0] == name}] * 3


@pytest.fixture
def chunk_draws(monkeypatch) -> list[int]:
    """Counts every chunk generator the estimators ask for."""
    calls: list[int] = []
    original = sampling.chunk_rng

    def counted(seed: int, chunk_index: int) -> np.random.Generator:
        calls.append(chunk_index)
        return original(seed, chunk_index)

    monkeypatch.setattr(sampling, "chunk_rng", counted)
    return calls


class TestDrawMemo:
    CHUNKS = 3  # in PIN_SAMPLES

    def test_gap_identity_inaccuracy_draw_each_chunk_once(self, chunk_draws):
        scenario, measures = _pin_setup()
        _pinned_bundle(scenario, "mixture", measures["mixture"])
        assert sorted(chunk_draws) == list(range(self.CHUNKS))

    def test_unkeyed_draw_in_between_keeps_the_memo(self, chunk_draws):
        scenario, measures = _pin_setup()
        mu = measures["gaussian"]
        expected_gap(scenario, mu, PIN_SAMPLES, PIN_SEED)
        estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        inaccuracy_mc(scenario.agent, 0, mu, PIN_SAMPLES, PIN_SEED)
        assert len(chunk_draws) == 2 * self.CHUNKS

    def test_cli_score_draws_each_chunk_once(self, chunk_draws, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCORE_SCENARIO))
        assert main(["score", str(path), "--samples", str(PIN_SAMPLES), "--seed", "7"]) == 0
        capsys.readouterr()
        assert sorted(chunk_draws) == list(range(self.CHUNKS))

    @pytest.mark.parametrize(
        "change", ["seed", "samples", "dim", "sigma", "center", "scale", "weight"]
    )
    def test_any_change_of_content_redraws(self, change, chunk_draws):
        first, second = _miss_case(change)
        for _ in range(2):
            inaccuracy_mc(*first)
        assert len(chunk_draws) == 1
        inaccuracy_mc(*second)
        assert len(chunk_draws) == 2

    def test_memoized_samples_are_read_only(self, monkeypatch):
        draw = MeasureSpec.gaussian(1.0).sampler(2)

        def first_column(xs: np.ndarray) -> np.ndarray:
            return xs[:, 0]

        def scribble(xs: np.ndarray) -> np.ndarray:
            xs[:, 0] = 0.0
            return xs[:, 1]

        clean = mc_estimate(draw, first_column, 1_000, seed=3)
        with pytest.raises(ValueError, match="read-only"):
            mc_estimate(draw, scribble, 1_000, seed=3)
        assert mc_estimate(draw, first_column, 1_000, seed=3) == clean
        monkeypatch.setattr(sampling, "_memo", None)
        with pytest.raises(ValueError, match="read-only"):
            mc_estimate(draw, scribble, 1_000, seed=3)

    def test_run_over_the_budget_is_not_retained(self, chunk_draws, monkeypatch):
        monkeypatch.setattr(sampling, "_MEMO_BYTES", 4 * 8 * 100)
        draw = MeasureSpec.gaussian(1.0).sampler(4)
        for _ in range(2):
            mc_estimate(draw, lambda xs: xs[:, 0], 100, seed=1)
        assert len(chunk_draws) == 1 and sampling._memo is not None
        for _ in range(2):
            mc_estimate(draw, lambda xs: xs[:, 0], 101, seed=1)
        assert len(chunk_draws) == 3 and sampling._memo is None

    def test_budget_holds_the_default_cli_run_up_to_forty_worlds(self):
        assert 100_000 * 40 * 8 <= sampling._MEMO_BYTES


def _miss_case(change: str) -> tuple[tuple, tuple]:
    """Two inaccuracy_mc argument tuples whose draws differ only in ``change``."""
    scenario, measures = _pin_setup()
    p, mu = scenario.agent, measures["mixture"]
    base = (p, 0, mu, 3_000, 5)
    if change == "seed":
        return base, (p, 0, mu, 3_000, 6)
    if change == "samples":
        return base, (p, 0, mu, 3_001, 5)
    if change == "dim":
        gauss = MeasureSpec.gaussian(1.5)
        return (p, 0, gauss, 3_000, 5), (ProbMass(np.ones(3) / 3), 0, gauss, 3_000, 5)
    if change == "sigma":
        return base, (p, 0, MeasureSpec.mixture(np.nextafter(mu.sigma, 2.0), mu.bumps), 3_000, 5)
    bump = mu.bumps[0]
    center, scale, weight = bump.center, bump.scale, bump.weight
    if change == "center":
        center = Gamble(center.values + np.eye(center.n)[-1] * 1e-12)
    elif change == "scale":
        scale *= 1.5
    else:
        weight *= 0.5
    moved = MeasureSpec.mixture(mu.sigma, (BumpPair(center, scale, weight),) + mu.bumps[1:])
    return base, (p, 0, moved, 3_000, 5)
