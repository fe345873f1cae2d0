"""Determinism contracts of the chunked Monte-Carlo plumbing."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings

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
from oracles import random_measure, random_scenario


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
            env={**os.environ, "DEFLAB_THREADS": "2"},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "1"

    def test_one_thread_starts_no_thread(self, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", "1")
        monkeypatch.setattr(sampling, "_pool", None)
        scenario, measures = _pin_setup()
        before = threading.active_count()
        for mu in measures.values():
            _four_estimators(scenario, mu)
        assert threading.active_count() <= before
        assert sampling._pool is None

    def test_changing_the_thread_count_keeps_the_pins(self, monkeypatch):
        monkeypatch.setattr(sampling, "_pool", None)
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
        assert sampling._pool[0] == 2
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
        assert sampling._pool is not None
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
        # Six chunks on two workers: the chunks not yet begun when the first
        # block fails are dropped, and none runs on after the call returns.
        monkeypatch.setenv("DEFLAB_THREADS", "2")
        lock = threading.Lock()
        calls: list[int] = []

        def values(xs: np.ndarray) -> np.ndarray:
            with lock:
                calls.append(len(xs))
                first = len(calls) == 1
            if first:
                raise RuntimeError("first block fails")
            time.sleep(0.001)
            return xs[:, 0]

        unkeyed = lambda rng, m: rng.standard_normal((m, 2))
        with pytest.raises(RuntimeError, match="first block fails"):
            mc_estimate(unkeyed, values, 6 * CHUNK_SIZE, seed=0)
        seen = len(calls)
        time.sleep(0.2)
        assert len(calls) == seen
        assert seen < 1 + 5 * (CHUNK_SIZE // _BLOCK_ROWS)


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
    std_error = np.sqrt(m2 / (count - 1) / count) if count > 1 and m2 > 0.0 else 0.0
    return ScoreEstimate(mean + 0.0, float(std_error), count, seed)


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

    def test_mixture_bundle_draws_each_stream_once(self, chunk_draws):
        # ae-trust draws its Gaussian between identity and inaccuracy without
        # pushing the mixture run out of the memo.
        scenario, measures = _pin_setup()
        _four_estimators(scenario, measures["mixture"])
        assert sorted(chunk_draws) == sorted(list(range(self.CHUNKS)) * 2)

    def test_frequency_reads_the_memo_but_never_fills_it(self, chunk_draws):
        scenario, measures = _pin_setup()
        estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        assert sampling._memo is None
        expected_gap(scenario, measures["mixture"], PIN_SAMPLES, PIN_SEED)
        held = sampling._memo
        estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        assert sampling._memo is held
        assert len(chunk_draws) == 3 * self.CHUNKS

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ae_trust_bits_cold_and_after_the_gap(self, threads, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario, measures = _pin_setup()
        cold = estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        expected_gap(scenario, measures["gaussian"], PIN_SAMPLES, PIN_SEED)
        warm = estimate_ae_trust(scenario, 1.5, PIN_SAMPLES, PIN_SEED)
        assert _bits(cold) == _bits(warm) == PINS[("ae",)]

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
        assert len(draws) >= 8 + 5  # score 2, identity 1, ae-trust 1, counterexample 1+ rungs
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
