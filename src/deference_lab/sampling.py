"""Deterministic, splittable Monte-Carlo plumbing.

Every randomized estimator in this package runs through :func:`mc_estimate`
or :func:`mc_frequency`.  Work is cut into fixed-size chunks; chunk j draws
from its own generator seeded by ``SeedSequence(seed, spawn_key=(j,))`` and
partial results are combined in chunk order.  Because no stream crosses a
chunk boundary and the reduction order is fixed, results are bit-identical
for a given (seed, N) no matter how many worker threads run the chunks.

Within a chunk, ``MeasureSpec.sampler`` lays the stream out as m uniforms
for the component pick, then m*dim standard normals.  A one-component
measure (a plain Gaussian) skips the m uniforms with the bit generator's
``advance`` instead of drawing them; on the chunks' PCG64 generators that
lands on the same normals, so not a bit moves.

Thread count is taken from the ``DEFLAB_THREADS`` environment variable
(default 1); anything but a positive integer raises ``ValidationError``.
With one worker, or a run of one chunk, the chunks run in the calling
thread and no thread is started.  Otherwise they run on one worker pool
kept between calls: it is built on the first such run (importing the
module starts no thread), and rebuilt when ``DEFLAB_THREADS`` changes.
The replaced pool is not shut down, because a concurrent caller may still
hold it; its idle threads exit once it is garbage-collected.  A forked
child inherits the pool but none of its threads, so an at-fork hook drops
it there and the child builds its own.  When a chunk raises, the chunks
not yet begun are dropped and the call returns once the running ones have
finished, so no chunk outlives its call.  The pool decides only which
thread runs a chunk, never its seed or its place in the reduction, so no
bit moves.  Value and hit functions run on the pool's threads, so they
must not call the estimators themselves: with every worker waiting on
chunks queued behind it, the pool would deadlock.

Value and hit functions must work row by row: the function's value for a
row may depend on that row alone.  Each chunk is evaluated in consecutive
blocks of ``_BLOCK_ROWS`` (4,096) rows, and the block results are
concatenated in row order before the chunk is reduced, so the chunk-level
mean, scatter and hit count see the very array a single whole-chunk call
would give; no bit moves.  A block keeps each call's temporaries in cache,
and keeps its matrix products small enough that OpenBLAS runs them on the
calling thread: with ``DEFLAB_THREADS=1`` the estimators use about one
core.  Long-axis reductions stay inside numpy's deterministic pairwise
summation over the whole chunk.

Drawing a chunk costs more than evaluating most value functions on it, and
the estimators ask for the same run of draws one after another.  So the
drivers share a one-entry memo of the last run.  Its key is the content of
the draw: a draw may carry a ``_memo_key`` tuple whose first entry is its
row width (``MeasureSpec.sampler`` supplies dim and the exact bytes of its
component weights, means and scales), and the memo adds seed and samples.
A matching run reuses those chunk arrays, which are read-only.  On a miss,
:func:`mc_estimate` drops the entry before it draws and retains its own
run; :func:`mc_frequency` never fills or evicts the memo.  So
``estimate_ae_trust`` reads the run its Gaussian shares with the accuracy
estimators, and leaves a mixture's run in place.  A run whose draws exceed
``_MEMO_BYTES`` (32 MiB) is never retained, so large runs keep O(chunk)
memory, and draws without a key bypass the memo.  A hit hands each chunk
the same array that chunk's own generator would draw, so the per-chunk
seeds, the reduction order and with them the thread-count contract are
untouched.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ValidationError

__all__ = ["ScoreEstimate", "mc_estimate", "mc_frequency", "chunk_rng", "thread_count"]

#: Samples per chunk; fixed so the chunk -> seed map never depends on N.
CHUNK_SIZE = 1 << 16

DrawFn = Callable[[np.random.Generator, int], np.ndarray]
ValueFn = Callable[[np.ndarray], np.ndarray]

#: Rows per call of a value or hit function.  Larger blocks make OpenBLAS
#: wake its worker threads for the estimators' matrix products.
_BLOCK_ROWS = 4096

#: Largest run, in bytes of float64 draws, that the memo retains: the
#: default 100,000 samples up to 40 worlds.
_MEMO_BYTES = 32 << 20

#: The last retained run: ((draw key, seed, samples), read-only chunk arrays).
#: Only ever replaced whole, so threads need no lock: a reader holds either
#: a complete run for its key or nothing.
_memo: tuple[tuple, list[np.ndarray]] | None = None

#: The kept worker pool: (workers, executor), or None until a run needs one.
#: Only ever replaced whole, never shut down.  Two callers that race to build
#: one each get a working pool; the one not kept is collected like a
#: replaced one.
_pool: tuple[int, ThreadPoolExecutor] | None = None


def _executor(workers: int) -> ThreadPoolExecutor:
    """The kept executor, rebuilt when ``workers`` differs from its size."""
    global _pool
    entry = _pool
    if entry is None or entry[0] != workers:
        entry = _pool = (workers, ThreadPoolExecutor(max_workers=workers))
    return entry[1]


def _forget_pool() -> None:
    """Drop the pool in a forked child, which inherits none of its threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass(frozen=True)
class ScoreEstimate:
    """A Monte-Carlo mean with its standard error and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not self.std_error >= 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")


def thread_count() -> int:
    """Worker threads for chunk evaluation, from DEFLAB_THREADS (default 1).

    Anything but a positive integer raises :class:`ValidationError`.
    """
    raw = os.environ.get("DEFLAB_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValidationError(f"DEFLAB_THREADS must be a positive integer, got {raw!r}")
    return count


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The dedicated generator for one chunk of one estimator run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def _map_draws(
    draw: DrawFn, reduce: Callable[[np.ndarray, int], tuple], samples: int, seed: int, retain: bool
) -> list[tuple]:
    """``reduce(xs, m)`` of every chunk's draw, in chunk order.

    A keyed run identical to the memo's reuses its arrays instead of
    drawing; with ``retain``, any other keyed run that fits the budget
    replaces the memo, read-only.
    """
    global _memo
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sizes = _chunk_sizes(samples)
    tag = getattr(draw, "_memo_key", None)
    reused = kept = None
    if tag is not None:
        key = (tag, seed, samples)
        entry = _memo
        if entry is not None and entry[0] == key:
            reused = entry[1]
        elif retain:
            _memo = entry = None  # free the stale run before drawing this one
            if samples * tag[0] * 8 <= _MEMO_BYTES:
                kept = [None] * len(sizes)

    def work(j: int, m: int) -> tuple:
        if reused is not None:
            xs = reused[j]
        else:
            xs = draw(chunk_rng(seed, j), m)
            if kept is not None:
                xs.flags.writeable = False
                kept[j] = xs
        return reduce(xs, m)

    workers = thread_count()
    jobs = list(enumerate(sizes))
    if workers == 1 or len(jobs) == 1:
        results = [work(j, m) for j, m in jobs]
    else:
        pool = _executor(workers)
        futures = [pool.submit(work, j, m) for j, m in jobs]
        try:
            results = [future.result() for future in futures]
        finally:  # on an error, drop the chunks not begun and await the rest
            for future in futures:
                future.cancel()
            wait(futures)
    if kept is not None:
        _memo = (key, kept)
    return results


def _by_blocks(
    fn: ValueFn, xs: np.ndarray, vet: Callable[[object, int], np.ndarray]
) -> np.ndarray:
    """``vet(fn(block), rows)`` over consecutive ``_BLOCK_ROWS``-row blocks of
    ``xs``, concatenated in row order."""
    parts = []
    for start in range(0, len(xs), _BLOCK_ROWS):
        block = xs[start : start + _BLOCK_ROWS]
        parts.append(vet(fn(block), len(block)))
    return np.concatenate(parts)


def mc_estimate(draw: DrawFn, values: ValueFn, samples: int, seed: int) -> ScoreEstimate:
    """Estimate E[values(X)] for X ~ draw, with sample standard error.

    ``draw(rng, m)`` must return an (m, dim) array.  ``values`` is called on
    row blocks of it and must return one float per row, row by row.
    Per-chunk means and scatter are merged with the usual pairwise
    mean/M2 combination, sequentially in chunk order.
    """

    def vet(result: object, rows: int) -> np.ndarray:
        part = np.asarray(result, dtype=float)
        if part.shape != (rows,):
            raise ValueError(f"value function returned shape {part.shape}, expected ({rows},)")
        return part

    def moments(xs: np.ndarray, m: int) -> tuple[int, float, float]:
        chunk = _by_blocks(values, xs, vet)
        mean = float(np.mean(chunk))
        m2 = float(np.sum((chunk - mean) ** 2))
        return m, mean, m2

    count, mean, m2 = 0, 0.0, 0.0
    for c_count, c_mean, c_m2 in _map_draws(draw, moments, samples, seed, True):
        delta = c_mean - mean
        total = count + c_count
        mean += delta * (c_count / total)
        m2 += c_m2 + delta * delta * (count * c_count / total)
        count = total

    if count > 1 and m2 > 0.0:
        std_error = math.sqrt(m2 / (count - 1) / count)
    else:
        std_error = 0.0
    return ScoreEstimate(value=mean + 0.0, std_error=std_error, samples=count, seed=seed)


def mc_frequency(draw: DrawFn, hits: ValueFn, samples: int, seed: int) -> ScoreEstimate:
    """Estimate P[hits(X)] by exact counting, with binomial standard error.

    ``hits`` is called on row blocks of the draw and must return one bool
    per row, row by row.  Counts are integers, so the frequency is exact
    for the drawn sample and trivially reproducible.
    """

    def vet(result: object, rows: int) -> np.ndarray:
        mask = np.asarray(result)
        if mask.shape != (rows,) or mask.dtype != np.bool_:
            raise ValueError(f"hit function returned {mask.dtype} shape {mask.shape}")
        return mask

    def count(xs: np.ndarray, m: int) -> tuple[int]:
        return (int(np.count_nonzero(_by_blocks(hits, xs, vet))),)

    total_hits = sum(h for (h,) in _map_draws(draw, count, samples, seed, False))
    freq = total_hits / samples
    std_error = math.sqrt(freq * (1.0 - freq) / samples)
    return ScoreEstimate(value=freq, std_error=std_error, samples=samples, seed=seed)

