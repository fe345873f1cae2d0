"""Deterministic, splittable Monte-Carlo plumbing.

Every randomized estimator in this package runs through :func:`mc_estimate`
or :func:`mc_frequency`.  Work is cut into fixed-size chunks; chunk j draws
from its own generator seeded by ``SeedSequence(seed, spawn_key=(j,))`` and
partial results are combined in chunk order.  Because no stream crosses a
chunk boundary and the reduction order is fixed, results are bit-identical
for a given (seed, N) no matter how many worker threads run the chunks.
Both drivers take N >= 1 and seed >= 0 as integers of any kind (``True``
reads as 1) and raise ``ValidationError`` for anything else, before the
memo below is read or dropped.

Within a chunk, ``MeasureSpec.sampler`` lays the stream out as m uniforms
for the component pick, then m*dim standard normals, which a plain
Gaussian reaches with ``advance``: every measure draws the same normals.

Thread count is taken from the ``DEFLAB_THREADS`` environment variable
(default 1); anything but a positive integer raises ``ValidationError``.
With one worker, or a run of one chunk, the chunks run in the calling
thread and no thread is started.  Otherwise they run on one worker pool
kept between calls in a one-entry ``functools.lru_cache`` keyed by the
worker count: it is built on the first such run (importing the module
starts no thread), and replaced when ``DEFLAB_THREADS`` changes.  The
replaced pool is not shut down, because a concurrent caller may still hold
it; its idle threads exit once it is garbage-collected.  A forked child
inherits the pool but none of its threads, so an at-fork hook clears the
cache there and the child builds its own.  The first chunk to raise, or an
interrupted wait, sets a stop flag that every chunk reads before it draws
and before each block: the running chunks end at their next block, and a
chunk begun later draws nothing.  The call waits for every chunk, so none
outlives it, and raises the first failure in chunk order.  The pool decides
only which thread runs a chunk, never its seed or its place in the
reduction, so no bit moves.  Value and hit functions run on the pool's
threads, so they must not call the estimators themselves: with every worker
waiting on chunks queued behind it, the pool would deadlock.

Value and hit functions must work row by row: the function's value for a
row may depend on that row alone.  A chunk is placed and evaluated block by
block in one pass: each block of ``_BLOCK_ROWS`` (4,096) rows has its
gambles placed (when the chunk has normals to place), goes to the function
read-only, and has its results written into the chunk's array in row
order.  So the chunk-level mean, scatter and hit count see the very array
a single whole-chunk call would give; no bit moves.  A block keeps each
call's temporaries in cache, and keeps its matrix products small enough
that OpenBLAS runs them on the calling thread: with ``DEFLAB_THREADS=1``
the estimators use about one core.  Long-axis reductions stay inside
numpy's deterministic pairwise summation over the whole chunk.

Drawing a chunk costs more than evaluating most value functions on it, and
the estimators ask for the same run of draws one after another.  So they
share a one-entry memo of the last run, keyed by the draw's content: a draw
may carry a ``_memo_key`` tuple whose first entry is its row width
(``MeasureSpec.sampler`` supplies dim and the exact bytes of its component
weights, means and scales), and the memo adds seed and samples.  A run that
picks a component per row (a mixture) is retained with its unit normals
beside its gambles.  Every keyed run, whichever estimator asks, looks the
memo up in one order:

1. The same key: reuse the memo's chunk arrays, which are read-only.
2. A draw that picks no component (a plain Gaussian), with the dim, seed
   and samples of the memo's kept normals: place those normals, each block
   in its own buffer, draw nothing, and leave the memo as it is.
3. Otherwise: drop the memo, draw, and retain the run if its arrays (its
   gambles, plus its normals for a mixture) fit ``_MEMO_BYTES`` (32 MiB).

So a mixture's score bundle draws each chunk once.  Placement is
elementwise, so a placed block has a fresh draw's bits, and a hit hands a
chunk the array its own generator would draw: no bit moves at any thread
count.  Large runs keep O(chunk) memory, and unkeyed draws skip the memo.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
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

#: Largest run, in bytes of retained float64 arrays, that the memo keeps:
#: the default 100,000 samples up to 40 worlds for a plain Gaussian, up to
#: 20 for a mixture, which keeps its normals too.
_MEMO_BYTES = 32 << 20

#: The last retained run: ((draw key, seed, samples), read-only chunk arrays,
#: read-only chunk normals for a mixture run or None).  Only ever replaced
#: whole, so threads need no lock: a reader holds either a complete run for
#: its key or nothing.
_memo: tuple[tuple, list[np.ndarray], list[np.ndarray] | None] | None = None

@functools.lru_cache(maxsize=1)
def _executor(workers: int) -> ThreadPoolExecutor:
    """The kept worker pool; a call with another ``workers`` replaces it.

    The replaced pool is dropped, never shut down.  Two callers that race to
    build one each get a working pool; the one not kept is collected too.
    """
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    # A forked child inherits the pool but none of its threads.
    os.register_at_fork(after_in_child=_executor.cache_clear)


@dataclass(frozen=True)
class ScoreEstimate:
    """A Monte-Carlo mean with its standard error and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        _at_least("samples", self.samples, 1)
        _at_least("seed", self.seed, 0)
        if math.isnan(self.value):
            raise ValidationError(f"value must not be nan, got {self.value}")
        if not self.std_error >= 0.0:
            raise ValidationError(f"std_error must be >= 0, got {self.std_error}")


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


def _at_least(name: str, value: object, least: int) -> int:
    """``value`` as an int no less than ``least``, else :class:`ValidationError`."""
    try:
        whole = operator.index(value)
    except TypeError:
        whole = None
    if whole is None or whole < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return whole


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def _map_draws(
    draw: DrawFn,
    fn: ValueFn,
    vet: Callable[[object, int], np.ndarray],
    reduce: Callable[[np.ndarray], tuple],
    samples: int,
    seed: int,
) -> list[tuple]:
    """``reduce`` of every chunk's ``fn`` results, in chunk order.

    Each ``_BLOCK_ROWS``-row block of a chunk is placed (when the chunk has
    normals), handed to ``fn`` read-only, and ``vet(fn(block), rows)`` is
    written in row order into the chunk's array.  A keyed run reuses the
    memo's run of its key; else, if it picks no component, places the memo's
    kept normals of its dim, seed and samples; else drops the memo, draws,
    and retains its run if it fits.  A chunk that raises sets a stop flag,
    read before each draw and each block; the call waits for every chunk and
    raises the first failure in chunk order.  Keyed draws also carry
    ``MeasureSpec.sampler``'s ``normals``, ``place`` and ``picks``.
    """
    global _memo
    sizes = _chunk_sizes(samples)
    tag = getattr(draw, "_memo_key", None)
    reused = normals = kept = kept_normals = None
    if tag is not None:
        key = (tag, seed, samples)
        entry = _memo
        if entry is not None and entry[0] == key:
            reused = entry[1]
        elif (  # kept normals of this draw's own stream: same dim, seed and samples
            entry is not None
            and entry[2] is not None
            and not draw.picks
            and entry[0][0][0] == tag[0]
            and entry[0][1:] == key[1:]
        ):
            normals = entry[2]
        else:
            _memo = entry = None  # free the stale run before drawing this one
            copies = 2 if draw.picks else 1  # a mixture run keeps its normals too
            if samples * tag[0] * 8 * copies <= _MEMO_BYTES:
                kept = [None] * len(sizes)
                if draw.picks:
                    kept_normals = [None] * len(sizes)
    stop = threading.Event()

    def work(j: int, m: int) -> tuple | None:
        if stop.is_set():
            return None
        try:
            which = z = None
            if normals is not None:  # place the kept normals, each block in its own buffer
                z, xs = normals[j], None
            elif reused is not None:
                xs = reused[j]
            elif tag is None:
                xs = draw(chunk_rng(seed, j), m)
            else:
                which, z = draw.normals(chunk_rng(seed, j), m)
                xs = z if kept_normals is None else np.empty_like(z)
            chunk = None
            for start in range(0, m, _BLOCK_ROWS):
                if stop.is_set():
                    return None
                rows = slice(start, start + _BLOCK_ROWS)
                if z is None:
                    block = xs[rows]
                else:
                    out = np.empty_like(z[rows]) if xs is None else xs[rows]
                    block = draw.place(None if which is None else which[rows], z[rows], out)
                block.flags.writeable = False
                part = vet(fn(block), len(block))
                if chunk is None:
                    chunk = np.empty(m, part.dtype)
                chunk[rows] = part
            if kept is not None:
                xs.flags.writeable = False
                kept[j] = xs
            if kept_normals is not None:
                z.flags.writeable = False
                kept_normals[j] = z
            return reduce(chunk)
        except BaseException:  # stop the other chunks before this one unwinds
            stop.set()
            raise

    workers = thread_count()
    jobs = list(enumerate(sizes))
    if workers == 1 or len(jobs) == 1:
        results = [work(j, m) for j, m in jobs]
    else:
        futures = [_executor(workers).submit(work, j, m) for j, m in jobs]
        try:
            wait(futures)
        finally:  # an interrupted wait stops the chunks too
            stop.set()
        results = [future.result() for future in futures]
    if kept is not None:
        _memo = (key, kept, kept_normals)
    return results


def mc_estimate(draw: DrawFn, values: ValueFn, samples: int, seed: int) -> ScoreEstimate:
    """Estimate E[values(X)] for X ~ draw, with sample standard error.

    ``draw(rng, m)`` must return an (m, dim) array.  ``values`` is called on
    row blocks of it and must return one float per row, row by row.
    Per-chunk means and scatter are merged with the usual pairwise
    mean/M2 combination, sequentially in chunk order.  A mean or scatter
    that overflows, and one sample's standard error, read inf; a nan mean
    or standard error raises :class:`ValidationError`.
    """

    def vet(result: object, rows: int) -> np.ndarray:
        part = np.asarray(result, dtype=float)
        if part.shape != (rows,):
            raise ValueError(f"value function returned shape {part.shape}, expected ({rows},)")
        return part

    def moments(chunk: np.ndarray) -> tuple[int, float, float]:
        # A mean or scatter that overflows reads inf; a nan one raises below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(chunk))
            m2 = float(np.sum((chunk - mean) ** 2))
        return len(chunk), mean, m2

    samples, seed = _at_least("samples", samples, 1), _at_least("seed", seed, 0)
    chunks = iter(_map_draws(draw, values, vet, moments, samples, seed))
    count, mean, m2 = next(chunks)
    for c_count, c_mean, c_m2 in chunks:
        delta = c_mean - mean
        total = count + c_count
        mean += delta * (c_count / total)
        m2 += c_m2 + delta * delta * (count * c_count / total)
        count = total

    std_error = math.sqrt(m2 / (count - 1) / count) if count > 1 else math.inf
    if math.isnan(mean) or math.isnan(std_error):
        raise ValidationError(f"Monte-Carlo estimate is nan (mean {mean}, scatter {m2})")
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

    def count(chunk: np.ndarray) -> tuple[int]:
        return (int(np.count_nonzero(chunk)),)

    samples, seed = _at_least("samples", samples, 1), _at_least("seed", seed, 0)
    total_hits = sum(h for (h,) in _map_draws(draw, hits, vet, count, samples, seed))
    freq = total_hits / samples
    std_error = math.sqrt(freq * (1.0 - freq) / samples)
    return ScoreEstimate(value=freq, std_error=std_error, samples=samples, seed=seed)

