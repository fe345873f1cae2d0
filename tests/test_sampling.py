"""Determinism contracts of the chunked Monte-Carlo plumbing."""

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from deference_lab import (
    BumpPair,
    Gamble,
    MeasureSpec,
    ProbMass,
    Scenario,
    ValidationError,
    accuracy,
    estimate_ae_trust,
    expected_gap,
    inaccuracy_mc,
    rhs_identity,
    sampling,
    trust,
)
from deference_lab.cli import main
from deference_lab.sampling import (
    _BLOCK_ROWS,
    CHUNK_SIZE,
    ScoreEstimate,
    chunk_rng,
    mc_estimate,
    mc_frequency,
    thread_count,
)
from oracles import component_pick_sampler, random_measure, random_scenario


def _norms(xs: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(xs**2, axis=1))


def _gaussian(dim: int, sigma: float):
    """The centred Gaussian draw every estimator uses."""
    return MeasureSpec.gaussian(sigma).sampler(dim)


class TestMcEstimate:
    def test_deterministic_given_seed(self, monkeypatch):
        draw = _gaussian(3, 1.0)
        a = mc_estimate(draw, _norms, 50_000, seed=11)
        monkeypatch.setattr(sampling, "_memo", None)  # a second draw, not the retained run
        b = mc_estimate(draw, _norms, 50_000, seed=11)
        assert a == b

    def test_seed_changes_result(self):
        draw = _gaussian(3, 1.0)
        a = mc_estimate(draw, _norms, 10_000, seed=1)
        b = mc_estimate(draw, _norms, 10_000, seed=2)
        assert a.value != b.value

    def test_spans_chunk_boundaries_consistently(self):
        # Crossing a chunk boundary must not disturb the earlier chunks:
        # the first CHUNK_SIZE samples are the same stream either way.
        draw = _gaussian(2, 1.0)
        small = mc_estimate(draw, _norms, CHUNK_SIZE, seed=5)
        large = mc_estimate(draw, _norms, CHUNK_SIZE + 123, seed=5)
        assert small.samples == CHUNK_SIZE
        assert large.samples == CHUNK_SIZE + 123
        assert small.value != large.value  # extra partial chunk was included

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        draw = _gaussian(4, 2.0)
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        serial = mc_estimate(draw, _norms, 3 * CHUNK_SIZE + 17, seed=9)
        monkeypatch.setattr(sampling, "_memo", None)  # a second draw, not the retained run
        monkeypatch.setenv("DEFLAB_THREADS", "4")
        threaded = mc_estimate(draw, _norms, 3 * CHUNK_SIZE + 17, seed=9)
        assert serial == threaded

    def test_gaussian_mean_and_se_are_sane(self):
        draw = _gaussian(1, 1.0)
        est = mc_estimate(draw, lambda xs: xs[:, 0], 200_000, seed=3)
        assert abs(est.value) < 5 * est.std_error
        assert est.std_error == pytest.approx(1.0 / np.sqrt(200_000), rel=0.05)

    def test_constant_zero_integrand_is_exact(self):
        draw = _gaussian(2, 1.0)
        est = mc_estimate(draw, lambda xs: np.zeros(len(xs)), 10_000, seed=0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_scatter_of_an_overflowing_first_mean_is_computed(self):
        # The first chunk's mean squared overflows, but its scatter does not.
        draw = _gaussian(2, 1.0)
        unit = mc_estimate(draw, lambda xs: xs[:, 0], 2_000, seed=0)
        est = mc_estimate(draw, lambda xs: 1e150 * xs[:, 0] + 2e154, 2_000, seed=0)
        assert est.std_error == pytest.approx(1e150 * unit.std_error, rel=1e-12)

    def test_overflowing_scatter_reads_inf(self):
        est = mc_estimate(_gaussian(2, 1.0), lambda xs: 1e300 * xs[:, 0], CHUNK_SIZE + 5, seed=0)
        assert math.isfinite(est.value) and est.std_error == math.inf

    def test_nan_estimate_raises(self):
        # Every value is finite, but their sum leaves float range both ways.
        with pytest.raises(ValidationError, match="Monte-Carlo estimate is nan"):
            mc_estimate(_gaussian(2, 1.0), lambda xs: np.copysign(1e308, xs[:, 0]), 2_000, seed=0)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            mc_estimate(_gaussian(1, 1.0), _norms, 0, seed=0)

    def test_each_block_is_shape_checked(self):
        # One row too many in the first block and one too few in the second
        # add up to the chunk's rows; the check must still see the first.
        blocks: list[int] = []

        def uneven(xs: np.ndarray) -> np.ndarray:
            blocks.append(len(xs))
            return np.zeros(len(xs) + (1 if len(blocks) == 1 else -1))

        with pytest.raises(ValueError, match=r"value function returned shape \(4097,\)"):
            mc_estimate(_gaussian(2, 1.0), uneven, 2 * _BLOCK_ROWS, seed=0)
        assert blocks == [_BLOCK_ROWS]


class TestMcFrequency:
    def test_exact_zero_and_one(self):
        draw = _gaussian(1, 1.0)
        never = mc_frequency(draw, lambda xs: np.zeros(len(xs), dtype=bool), 1_000, 0)
        always = mc_frequency(draw, lambda xs: np.ones(len(xs), dtype=bool), 1_000, 0)
        assert (never.value, never.std_error) == (0.0, 0.0)
        assert (always.value, always.std_error) == (1.0, 0.0)

    def test_binomial_standard_error(self):
        draw = _gaussian(1, 1.0)
        est = mc_frequency(draw, lambda xs: xs[:, 0] > 0.0, 40_000, seed=2)
        assert est.value == pytest.approx(0.5, abs=0.02)
        f = est.value
        assert est.std_error == pytest.approx(np.sqrt(f * (1 - f) / 40_000))

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        draw = _gaussian(2, 1.0)
        hits = lambda xs: xs[:, 0] > xs[:, 1]
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        serial = mc_frequency(draw, hits, 2 * CHUNK_SIZE + 5, seed=4)
        monkeypatch.setenv("DEFLAB_THREADS", "3")
        threaded = mc_frequency(draw, hits, 2 * CHUNK_SIZE + 5, seed=4)
        assert serial == threaded

    @pytest.mark.parametrize("bad", ["int8", "uneven"])
    def test_each_block_is_checked(self, bad):
        # Only the second of three blocks is bad; the check must stop there.
        blocks: list[int] = []

        def hits(xs: np.ndarray) -> np.ndarray:
            blocks.append(len(xs))
            if len(blocks) != 2:
                return xs[:, 0] > 0.0
            if bad == "int8":
                return (xs[:, 0] > 0.0).astype(np.int8)
            return np.zeros(len(xs) + 1, dtype=bool)

        with pytest.raises(ValueError, match="hit function returned"):
            mc_frequency(_gaussian(2, 1.0), hits, 3 * _BLOCK_ROWS - 1, seed=0)
        assert blocks == [_BLOCK_ROWS, _BLOCK_ROWS]


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

    def test_fractional_samples_raise(self):
        with pytest.raises(ValidationError, match="samples must be an integer >= 1, got 2.5"):
            ScoreEstimate(value=0.0, std_error=0.0, samples=2.5, seed=0)

    def test_negative_seed_raises(self):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0, got -1"):
            ScoreEstimate(value=0.0, std_error=0.0, samples=2, seed=-1)

    @pytest.mark.parametrize("std_error", [-1.0, math.nan])
    def test_negative_or_nan_std_error_raises(self, std_error):
        with pytest.raises(ValidationError, match=f"std_error must be >= 0, got {std_error}"):
            ScoreEstimate(value=0.0, std_error=std_error, samples=2, seed=0)

    def test_nan_value_raises(self):
        with pytest.raises(ValidationError, match="value must not be nan, got nan"):
            ScoreEstimate(value=math.nan, std_error=0.0, samples=1, seed=0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_value_is_kept(self, value):
        # An estimate that overflows reads inf rather than raising.
        assert ScoreEstimate(value=value, std_error=math.inf, samples=1, seed=0).value == value


UNIT_GAUSS = MeasureSpec.gaussian(1.0)


class TestEstimatorArguments:
    """Malformed samples, seeds and world indices raise before the memo is read."""

    ESTIMATORS = {
        "gap": lambda s, samples, seed: expected_gap(s, UNIT_GAUSS, samples, seed),
        "ae-trust": lambda s, samples, seed: estimate_ae_trust(s, 1.0, samples, seed),
        "inaccuracy": lambda s, samples, seed: inaccuracy_mc(s.agent, 1, UNIT_GAUSS, samples, seed),
    }

    @staticmethod
    def _kept_run() -> tuple[Scenario, tuple]:
        scenario = Scenario.from_weights(SCORE_SCENARIO["agent"], SCORE_SCENARIO["expert"])
        expected_gap(scenario, UNIT_GAUSS, 1_000, 0)
        assert sampling._memo is not None
        return scenario, sampling._memo

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize(
        "samples, seed, message",
        [
            (100.0, 0, r"samples must be an integer >= 1, got 100\.0"),
            (0, 0, "samples must be an integer >= 1, got 0"),
            (100, 1.5, r"seed must be an integer >= 0, got 1\.5"),
            (100, -1, "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_rejected_before_the_memo(self, estimator, samples, seed, message):
        scenario, kept = self._kept_run()
        with pytest.raises(ValidationError, match=message):
            self.ESTIMATORS[estimator](scenario, samples, seed)
        assert sampling._memo is kept

    def test_world_index_must_be_an_integer(self):
        scenario, kept = self._kept_run()
        with pytest.raises(ValidationError, match=r"world index must be an integer, got 1\.0"):
            inaccuracy_mc(scenario.agent, 1.0, UNIT_GAUSS, 100, 0)
        assert sampling._memo is kept
        truth = inaccuracy_mc(scenario.agent, True, UNIT_GAUSS, 1_000, 1)
        assert truth == inaccuracy_mc(scenario.agent, 1, UNIT_GAUSS, 1_000, 1)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_true_seed_reads_as_one(self, estimator):
        scenario, _ = self._kept_run()
        run = self.ESTIMATORS[estimator]
        estimate = run(scenario, 1_000, True)
        assert type(estimate.seed) is int and estimate == run(scenario, 1_000, 1)


# ---------------------------------------------------------------------------
# Golden estimator bits and the draw memo
# ---------------------------------------------------------------------------

#: Two full chunks and a partial one.
PIN_SAMPLES = 2 * CHUNK_SIZE + 123
PIN_SEED = 17
PIN_WORLD = 3

#: float.hex of (value, std_error), identical at DEFLAB_THREADS 1 and 2.  The
#: gap, identity and inaccuracy bits were captured before the draw memo
#: existed; the ae-trust bits when it began to draw the MeasureSpec Gaussian.
PINS = {
    ("gaussian", "gap"): ("0x1.92fd098867d42p-3", "0x1.c70e6bfe7dcf4p-11"),
    ("gaussian", "identity"): ("0x1.92fd098867d42p-3", "0x1.c70e6bfe7dcf4p-11"),
    ("gaussian", "inaccuracy"): ("0x1.a23c79b72a527p-4", "0x1.9d736e218c399p-11"),
    ("mixture", "gap"): ("0x1.1fa139da0879fp-3", "0x1.3d858805cc337p-11"),
    ("mixture", "identity"): ("0x1.1fa139da0879fp-3", "0x1.3d858805cc337p-11"),
    ("mixture", "inaccuracy"): ("0x1.cc79252e15fa4p-3", "0x1.5d43eecf30b25p-10"),
    ("ae",): ("0x1.a4310e3715c44p-2", "0x1.6400f67140cc3p-10"),
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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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
    DIGEST = "3d21585569266d7ed1933f2fcd072a91620aad70e1b7023fd1b6308c23edad6c"

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
        # other's memo, and ae-trust reads it whenever the Gaussian run is
        # there; a torn or mismatched entry would change a bit.
        _callers_keep_the_pins(callers=4, interval=1e-5, rounds=3)

    def test_eight_callers_sharing_the_worker_pool_keep_the_pins(self, monkeypatch):
        # Every caller's chunks queue on the one kept three-worker pool.
        monkeypatch.setenv("DEFLAB_THREADS", "3")
        _callers_keep_the_pins(callers=8, interval=1e-6, rounds=2)


def _callers_keep_the_pins(callers: int, interval: float, rounds: int) -> None:
    """``callers`` Python threads, half per measure, each run the four
    estimators ``rounds`` times at switch interval ``interval``; every
    result must equal its pin."""
    scenario, measures = _pin_setup()
    names = list(measures) * (callers // 2)
    start = threading.Barrier(len(names))
    results: list[list[dict]] = [[] for _ in names]

    def run(slot: int) -> None:
        start.wait()
        for _ in range(rounds):
            name = names[slot]
            bundle = _pinned_bundle(scenario, name, measures[name])
            ae = estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
            results[slot].append({**bundle, ("ae",): _bits(ae)})

    saved = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        workers = [threading.Thread(target=run, args=(slot,)) for slot in range(len(names))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(worker.is_alive() for worker in workers)
    for name, runs in zip(names, results):
        assert runs == [{k: v for k, v in PINS.items() if k[0] in (name, "ae")}] * rounds


# ---------------------------------------------------------------------------
# The kept worker pool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_import_starts_no_thread(self):
        code = "import threading, deference_lab; print(threading.active_count())"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={
                **os.environ,
                "DEFLAB_THREADS": "2",
                "PYTHONPATH": str(Path(sampling.__file__).parents[1]),
            },
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "1"

    def test_one_thread_starts_no_thread(self, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        sampling._executor.cache_clear()
        scenario, measures = _pin_setup()
        before = threading.active_count()
        for mu in measures.values():
            _four_estimators(scenario, mu)
        assert threading.active_count() <= before
        assert sampling._executor.cache_info().currsize == 0

    def test_changing_the_thread_count_keeps_the_pins(self, monkeypatch):
        sampling._executor.cache_clear()
        before = threading.active_count()
        scenario, measures = _pin_setup()
        for threads in ("2", "3", "1", "2"):
            monkeypatch.setenv("DEFLAB_THREADS", threads)
            got = {}
            for name, mu in measures.items():
                sampling._memo = None
                got.update(_pinned_bundle(scenario, name, mu))
            got[("ae",)] = _bits(estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED))
            assert got == PINS, threads
        # The kept pool is the two-worker one: asking for it again is a hit.
        hits = sampling._executor.cache_info().hits
        sampling._executor(2)
        assert sampling._executor.cache_info().hits == hits + 1
        # The replaced three-worker pool is collected and its threads exit.
        deadline = time.monotonic() + 10.0
        while threading.active_count() > before + 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before + 2

    def test_forked_child_gets_the_parent_bits(self, monkeypatch):
        # The child inherits the pool object but none of its threads; work
        # queued on it would wait forever.
        monkeypatch.setenv("DEFLAB_THREADS", "2")
        scenario, measures = _pin_setup()
        mu = measures["gaussian"]
        parent = _bits(expected_gap(scenario, mu, PIN_SAMPLES, PIN_SEED))
        assert sampling._executor.cache_info().currsize == 1
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def child() -> None:
            sampling._memo = None  # draw every chunk again, on the child's pool
            send.send(_bits(expected_gap(scenario, mu, PIN_SAMPLES, PIN_SEED)))

        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks.
            warnings.filterwarnings(
                "ignore",
                r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            process = context.Process(target=child)
            process.start()
        try:
            process.join(timeout=60)
            assert not process.is_alive()
            assert process.exitcode == 0
            assert receive.recv() == parent == PINS[("gaussian", "gap")]
        finally:
            if process.is_alive():
                process.kill()
                process.join()

    def test_a_failing_chunk_stops_the_run_and_leaves_no_chunk_running(self, monkeypatch):
        # Six chunks on two workers, and the first block fails: besides it,
        # only the other worker's block in flight, and one it may begin
        # before the stop flag is set, are evaluated.  The chunks begun
        # after the failure draw nothing, and none runs after the call.
        monkeypatch.setenv("DEFLAB_THREADS", "2")
        lock = threading.Lock()
        calls: list[int] = []
        drawn: list[int] = []

        def values(xs: np.ndarray) -> np.ndarray:
            with lock:
                calls.append(len(xs))
                first = len(calls) == 1
            if first:
                raise RuntimeError("first block fails")
            time.sleep(0.001)
            return xs[:, 0]

        def unkeyed(rng: np.random.Generator, m: int) -> np.ndarray:
            drawn.append(m)
            return rng.standard_normal((m, 2))

        with pytest.raises(RuntimeError, match="first block fails"):
            mc_estimate(unkeyed, values, 6 * CHUNK_SIZE, seed=0)
        seen = len(calls)
        time.sleep(0.2)
        assert len(calls) == seen
        assert seen <= 3
        assert len(drawn) <= 2

    def test_an_interrupted_call_stops_its_chunks(self, monkeypatch):
        # The caller's wait is interrupted while each worker holds one block:
        # those blocks end, and no other block runs in the pool after the call.
        monkeypatch.setenv("DEFLAB_THREADS", "2")
        returned = threading.Event()
        calls: list[int] = []

        def values(xs: np.ndarray) -> np.ndarray:
            calls.append(len(xs))
            returned.wait(timeout=0.2)
            return xs[:, 0]

        def interrupted(futures) -> None:
            raise KeyboardInterrupt

        monkeypatch.setattr(sampling, "wait", interrupted)
        unkeyed = lambda rng, m: rng.standard_normal((m, 2))
        with pytest.raises(KeyboardInterrupt):
            mc_estimate(unkeyed, values, 6 * CHUNK_SIZE, seed=0)
        returned.set()
        time.sleep(0.2)
        seen = len(calls)
        time.sleep(0.2)
        assert len(calls) == seen <= 2

    def test_a_failing_chunk_stops_the_chunk_before_it(self, monkeypatch):
        # Chunk 1's first block fails while chunk 0 is mid-run: chunk 0 ends
        # at its next block instead of running to its end, the first failure
        # in chunk order is raised, and the chunks begun later draw nothing.
        monkeypatch.setenv("DEFLAB_THREADS", "2")
        monkeypatch.setattr(sampling, "chunk_rng", lambda seed, j: j)
        mid_run = threading.Event()
        drawn: list[int] = []
        blocks: list[int] = []
        at_failure: list[int] = []

        def draw(j: int, m: int) -> np.ndarray:
            drawn.append(j)
            return np.full((m, 2), float(j))

        def values(xs: np.ndarray) -> np.ndarray:
            j = int(xs[0, 0])
            blocks.append(j)
            if j == 1:
                mid_run.wait(timeout=10.0)
                at_failure.append(blocks.count(0))
                raise RuntimeError("chunk 1 fails")
            if blocks.count(0) == 2:
                mid_run.set()
            time.sleep(0.001)
            return xs[:, 0]

        with pytest.raises(RuntimeError, match="chunk 1 fails"):
            mc_estimate(draw, values, 6 * CHUNK_SIZE, seed=0)
        seen = len(blocks)
        time.sleep(0.2)
        assert len(blocks) == seen
        assert sorted(drawn) == [0, 1]
        assert len(at_failure) == 1 and at_failure[0] >= 2  # chunk 0 was mid-run
        assert blocks.count(0) <= at_failure[0] + 1 < CHUNK_SIZE // _BLOCK_ROWS


# ---------------------------------------------------------------------------
# Row blocks within a chunk
# ---------------------------------------------------------------------------

#: One row, a block's edges, and a full chunk followed by a partial one.
BLOCK_EDGE_SAMPLES = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, CHUNK_SIZE + 4097]


def _chunks(draw, samples: int, seed: int):
    for j, start in enumerate(range(0, samples, CHUNK_SIZE)):
        yield draw(chunk_rng(seed, j), min(CHUNK_SIZE, samples - start))


def _whole_chunk_estimate(draw, values, samples: int, seed: int) -> ScoreEstimate:
    """``mc_estimate``'s reduction with one ``values`` call per chunk."""
    count, mean, m2 = 0, 0.0, 0.0
    for xs in _chunks(draw, samples, seed):
        chunk = np.asarray(values(xs), dtype=float)
        c_count, c_mean = len(chunk), float(np.mean(chunk))
        c_m2 = float(np.sum((chunk - c_mean) ** 2))
        delta = c_mean - mean
        total = count + c_count
        mean += delta * (c_count / total)
        m2 += c_m2 + delta * delta * (count * c_count / total)
        count = total
    std_error = math.sqrt(m2 / (count - 1) / count) if count > 1 else math.inf
    return ScoreEstimate(mean + 0.0, std_error, count, seed)


def _whole_chunk_frequency(draw, hits, samples: int, seed: int) -> ScoreEstimate:
    """``mc_frequency``'s reduction with one ``hits`` call per chunk."""
    total = sum(int(np.count_nonzero(hits(xs))) for xs in _chunks(draw, samples, seed))
    freq = total / samples
    return ScoreEstimate(freq, float(np.sqrt(freq * (1.0 - freq) / samples)), samples, seed)


def _capture(monkeypatch, module, name: str) -> list[tuple]:
    """Records the (draw, function) pairs passed to ``module.name``."""
    seen: list[tuple] = []
    original = getattr(module, name)

    def capturing(draw, fn, samples, seed):
        seen.append((draw, fn))
        return original(draw, fn, samples, seed)

    monkeypatch.setattr(module, name, capturing)
    return seen


class TestRowBlocks:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blocks_give_the_whole_chunk_bits(self, threads, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario, measures = _pin_setup()
        estimates = _capture(monkeypatch, accuracy, "mc_estimate")
        frequencies = _capture(monkeypatch, trust, "mc_frequency")
        for mu in measures.values():
            expected_gap(scenario, mu, 1, 0)
            rhs_identity(scenario, mu, 1, 0)
            inaccuracy_mc(scenario.agent, PIN_WORLD, mu, 1, 0)
        estimate_ae_trust(scenario, 1.5, 1, 0)
        assert (len(estimates), len(frequencies)) == (6, 1)
        for samples in BLOCK_EDGE_SAMPLES:
            for draw, values in estimates:
                blocked = mc_estimate(draw, values, samples, PIN_SEED)
                whole = _whole_chunk_estimate(draw, values, samples, PIN_SEED)
                assert _bits(blocked) == _bits(whole)
            for draw, hits in frequencies:
                blocked = mc_frequency(draw, hits, samples, PIN_SEED)
                whole = _whole_chunk_frequency(draw, hits, samples, PIN_SEED)
                assert _bits(blocked) == _bits(whole)

    def test_acceptance_products_stay_within_a_block(self, monkeypatch):
        rows: dict[str, list[int]] = {}
        original = trust._acceptance

        def recording(scenario, xs):
            rows[label].append(len(xs))
            return original(scenario, xs)

        # accuracy holds its own reference to the kernel.
        monkeypatch.setattr(trust, "_acceptance", recording)
        monkeypatch.setattr(accuracy, "_acceptance", recording)
        scenario, measures = _pin_setup()
        samples = CHUNK_SIZE + 123
        for label, run in (
            ("gap", lambda: expected_gap(scenario, measures["gaussian"], samples, 1)),
            ("identity", lambda: rhs_identity(scenario, measures["gaussian"], samples, 1)),
            ("ae", lambda: estimate_ae_trust(scenario, 1.5, samples, 1)),
        ):
            rows[label] = []
            run()
        for label, seen in rows.items():
            assert max(seen) == _BLOCK_ROWS, label
            assert sum(seen) == samples, label


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
        unkeyed = lambda rng, m: rng.standard_normal((m, scenario.n))
        mc_estimate(unkeyed, _norms, PIN_SAMPLES, PIN_SEED)
        inaccuracy_mc(scenario.agent, 0, mu, PIN_SAMPLES, PIN_SEED)
        assert len(chunk_draws) == 2 * self.CHUNKS

    def test_gaussian_bundle_draws_each_chunk_once(self, chunk_draws):
        # ae-trust's Gaussian is the measure's, so it reads the gap's run.
        scenario, measures = _pin_setup()
        _four_estimators(scenario, measures["gaussian"])
        assert sorted(chunk_draws) == list(range(self.CHUNKS))

    def test_mixture_bundle_draws_each_chunk_once(self, chunk_draws):
        # ae-trust places the mixture run's kept normals for its Gaussian,
        # between identity and inaccuracy, without pushing that run out.
        scenario, measures = _pin_setup()
        _four_estimators(scenario, measures["mixture"])
        assert sorted(chunk_draws) == list(range(self.CHUNKS))

    def test_frequency_fills_the_memo_and_leaves_a_placed_run(self, chunk_draws):
        # The memo rule is the same for every estimator: a cold ae-trust
        # retains its run, and one that places a mixture's kept normals
        # leaves that run in place.
        scenario, measures = _pin_setup()
        estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        gaussian = sampling._memo
        assert gaussian is not None and gaussian[2] is None
        estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        assert sampling._memo is gaussian
        assert len(chunk_draws) == self.CHUNKS
        expected_gap(scenario, measures["mixture"], PIN_SAMPLES, PIN_SEED)
        held = sampling._memo
        assert held is not gaussian and held[2] is not None
        estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        assert sampling._memo is held
        assert len(chunk_draws) == 2 * self.CHUNKS

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_gaussian_estimate_places_a_mixture_runs_normals(
        self, threads, monkeypatch, chunk_draws
    ):
        # mc_estimate follows the same rule as mc_frequency: a plain Gaussian
        # at the mixture run's (dim, seed, samples) draws no chunk.
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario, measures = _pin_setup()
        gaussian = measures["gaussian"]
        expected_gap(scenario, measures["mixture"], PIN_SAMPLES, PIN_SEED)
        held, drawn = sampling._memo, len(chunk_draws)
        warm = expected_gap(scenario, gaussian, PIN_SAMPLES, PIN_SEED)
        assert len(chunk_draws) == drawn and sampling._memo is held
        assert _bits(warm) == PINS[("gaussian", "gap")]
        sampling._memo = None
        assert warm == expected_gap(scenario, gaussian, PIN_SAMPLES, PIN_SEED)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ae_trust_bits_cold_and_after_the_gap(self, threads, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario, measures = _pin_setup()
        cold = estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        expected_gap(scenario, measures["gaussian"], PIN_SAMPLES, PIN_SEED)
        warm = estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        assert _bits(cold) == _bits(warm) == PINS[("ae",)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ae_trust_bits_cold_and_after_a_mixture_gap(self, threads, monkeypatch, chunk_draws):
        # The mixture run keeps its unit normals, and ae-trust places them
        # for its Gaussian instead of drawing: the cold call's bits, no chunk.
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario, measures = _pin_setup()
        for samples in BLOCK_EDGE_SAMPLES:
            sampling._memo = None
            cold = estimate_ae_trust(scenario, 1.5, samples, PIN_SEED)
            expected_gap(scenario, measures["mixture"], samples, PIN_SEED)
            held, drawn = sampling._memo, len(chunk_draws)
            assert held is not None and held[2] is not None
            warm = estimate_ae_trust(scenario, 1.5, samples, PIN_SEED)
            assert _bits(warm) == _bits(cold)
            assert len(chunk_draws) == drawn and sampling._memo is held

    @pytest.mark.parametrize("change", ["seed", "samples", "dim"])
    def test_ae_trust_draws_when_the_mixture_stream_differs(self, change, chunk_draws):
        scenario, measures = _pin_setup()
        seed, samples = PIN_SEED, 3_000
        expected_gap(scenario, measures["mixture"], samples, seed)
        if change == "seed":
            seed += 1
        elif change == "samples":
            samples += 1
        else:
            scenario = random_scenario(np.random.default_rng(1), scenario.n - 1)
        warm = estimate_ae_trust(scenario, 1.5, samples, seed)
        assert len(chunk_draws) == 2
        sampling._memo = None
        assert warm == estimate_ae_trust(scenario, 1.5, samples, seed)

    def test_retained_mixture_run_matches_the_whole_chunk_oracle(self):
        # A retained mixture run is placed block by block into its own array;
        # each chunk must equal a whole-chunk pick, scale and shift, and its
        # kept normals the chunk's normals after the m pick uniforms.
        rng = np.random.default_rng(22)
        for dim in (1, 3, 8):
            spec = random_measure(rng, dim)
            for samples in BLOCK_EDGE_SAMPLES:
                mc_estimate(spec.sampler(dim), _norms, samples, PIN_SEED)
                _, chunks, normals = sampling._memo
                oracle = component_pick_sampler(spec, dim)
                for j, m in enumerate(sampling._chunk_sizes(samples)):
                    assert _same_bits(chunks[j], oracle(chunk_rng(PIN_SEED, j), m))
                    stream = chunk_rng(PIN_SEED, j)
                    stream.random(m)
                    assert _same_bits(normals[j], stream.standard_normal((m, dim)))

    def test_every_estimator_draw_is_keyed(self, monkeypatch, tmp_path, capsys):
        draws = []
        original = sampling._map_draws

        def recording(draw, *args):
            draws.append(draw)
            return original(draw, *args)

        monkeypatch.setattr(sampling, "_map_draws", recording)
        scenario, measures = _pin_setup()
        for mu in measures.values():
            _four_estimators(scenario, mu, samples=1_000)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCORE_SCENARIO))
        for command in ("score", "identity", "ae-trust", "counterexample"):
            assert main([command, str(path), "--samples", "2000"]) == 0
        capsys.readouterr()
        assert len(draws) == 8 + 5  # score 2, identity 1, ae-trust 1, counterexample 1
        assert all(isinstance(getattr(draw, "_memo_key", None), tuple) for draw in draws)

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

        # The re-placed path: the Gaussian's blocks placed from a mixture
        # run's kept normals are read-only too, and so are those normals.
        def positive(xs: np.ndarray) -> np.ndarray:
            return xs[:, 0] > 0.0

        def scribble_hits(xs: np.ndarray) -> np.ndarray:
            xs[:, 0] = 0.0
            return xs[:, 1] > 0.0

        samples = CHUNK_SIZE + 4097
        cold = mc_frequency(draw, positive, samples, seed=3)
        mixture = MeasureSpec.mixture(1.0, (BumpPair(Gamble([2.0, -1.0]), 0.5, 0.4),))
        mc_estimate(mixture.sampler(2), first_column, samples, seed=3)
        held = sampling._memo
        assert all(not z.flags.writeable for z in held[2])
        with pytest.raises(ValueError, match="read-only"):
            mc_frequency(draw, scribble_hits, samples, seed=3)
        assert mc_frequency(draw, positive, samples, seed=3) == cold
        assert sampling._memo is held

    def test_every_block_a_function_receives_is_read_only(self, chunk_draws, monkeypatch):
        samples = CHUNK_SIZE + 4097
        blocks = CHUNK_SIZE // _BLOCK_ROWS + 2  # a full chunk, then 4,097 rows in two blocks
        gaussian = MeasureSpec.gaussian(1.0).sampler(2)
        mixture = MeasureSpec.mixture(1.0, (BumpPair(Gamble([2.0, -1.0]), 0.5, 0.4),)).sampler(2)
        unkeyed = lambda rng, m: rng.standard_normal((m, 2))
        seen: list[bool] = []

        def values(xs: np.ndarray) -> np.ndarray:
            seen.append(xs.flags.writeable)
            return xs[:, 0]

        def hits(xs: np.ndarray) -> np.ndarray:
            return values(xs) > 0.0

        def source(run, draws: int) -> None:
            seen.clear()
            before = len(chunk_draws)
            run()
            assert len(chunk_draws) - before == draws
            assert len(seen) == blocks and not any(seen)

        source(lambda: mc_estimate(gaussian, values, samples, 3), 2)  # fresh, retained
        source(lambda: mc_estimate(gaussian, values, samples, 3), 0)  # memo hit
        source(lambda: mc_frequency(mixture, hits, samples, 3), 2)  # fresh, keeps normals
        source(lambda: mc_estimate(mixture, values, samples, 3), 0)  # memo hit
        source(lambda: mc_frequency(gaussian, hits, samples, 3), 0)  # placed kept normals
        source(lambda: mc_estimate(unkeyed, values, samples, 3), 2)  # unkeyed
        monkeypatch.setattr(sampling, "_MEMO_BYTES", 0)
        source(lambda: mc_estimate(gaussian, values, samples, 4), 2)  # fresh, over budget
        assert sampling._memo is None

    def test_run_over_the_budget_is_not_retained(self, chunk_draws, monkeypatch):
        monkeypatch.setattr(sampling, "_MEMO_BYTES", 4 * 8 * 100)
        draw = MeasureSpec.gaussian(1.0).sampler(4)
        for _ in range(2):
            mc_estimate(draw, lambda xs: xs[:, 0], 100, seed=1)
        assert len(chunk_draws) == 1 and sampling._memo is not None
        for _ in range(2):
            mc_estimate(draw, lambda xs: xs[:, 0], 101, seed=1)
        assert len(chunk_draws) == 3 and sampling._memo is None

    def test_mixture_run_counts_its_normals_against_the_budget(self, chunk_draws, monkeypatch):
        # Placed draws alone fit, but with the kept normals the run is over
        # the budget: neither is retained.  At twice the draws both are.
        mixture = MeasureSpec.mixture(1.0, (BumpPair(Gamble([1.0, 0.0, -1.0, 2.0]), 0.5, 0.3),))
        draw = mixture.sampler(4)
        monkeypatch.setattr(sampling, "_MEMO_BYTES", 2 * 4 * 8 * 100 - 1)
        mc_estimate(draw, lambda xs: xs[:, 0], 100, seed=1)
        assert sampling._memo is None
        monkeypatch.setattr(sampling, "_MEMO_BYTES", 2 * 4 * 8 * 100)
        for _ in range(2):
            mc_estimate(draw, lambda xs: xs[:, 0], 100, seed=1)
        _, chunks, normals = sampling._memo
        assert len(chunk_draws) == 2
        assert chunks[0].shape == normals[0].shape == (100, 4)

    def test_budget_holds_the_default_cli_run_up_to_forty_worlds(self):
        assert 100_000 * 40 * 8 <= sampling._MEMO_BYTES


def _four_estimators(scenario: Scenario, mu: MeasureSpec, samples: int = PIN_SAMPLES) -> None:
    """An mc-scores bundle, in the benchmark's order."""
    expected_gap(scenario, mu, samples, PIN_SEED)
    rhs_identity(scenario, mu, samples, PIN_SEED)
    estimate_ae_trust(scenario, mu.sigma, samples, PIN_SEED)
    inaccuracy_mc(scenario.agent, PIN_WORLD, mu, samples, PIN_SEED)


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
