"""Reference kernels that track how fast the host runs this process right now.

The host's speed drifts by tens of percent within seconds: on the 2-CPU
host that measured the baseline, a fixed pure-Python loop took 14-21 ms
in consecutive 5-second windows, and identical exact checks varied by
20-30% between runs.  So the timed loop times one of these fixed kernels
before every operation (and after the last), and reports each latency
scaled by ``nominal_s`` over the mean of the kernel times around it.

Each kernel resembles one kind of work the program does, so that both
slow down alike; neither calls into ``deference_lab``, so a change to the
program cannot move them directly.  A change that also slows the kernels
from inside the process (more retained objects for the garbage collector
to scan, threads left running) is partly cancelled by the scaling, so
``record.py`` keeps the unscaled times and the kernel's median time next
to the scaled ones, where such a change shows as a slower kernel.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class InterpreterKernel:
    """Interpreter loops over tiny numpy arrays, like simplex pivots and CLI calls."""

    #: Typical time of one call between operations on the baseline host.
    nominal_s = 3.5e-3

    def __call__(self) -> float:
        started = time.perf_counter()
        acc = 0.0
        row = np.arange(24.0)
        for i in range(300):
            v = row * (i % 7) - 3.0
            acc += float(v[v > 0.0].sum())
            acc += sum({j: j * i for j in range(10)}.values())
        block = np.linspace(-1.0, 1.0, 1 << 16)
        acc += float(np.count_nonzero(block * acc >= 0.0))
        return time.perf_counter() - started

    def close(self) -> None:
        pass


class VectorKernel:
    """Gaussian chunks through a small matrix product on two threads, like sampling."""

    #: Typical time of one call between operations on the baseline host.
    nominal_s = 4.0e-3

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=2)
        self._matrix = np.random.default_rng(0).standard_normal((8, 9))

    def _chunk(self, j: int) -> float:
        x = np.random.default_rng(j).standard_normal((8192, 8))
        accepted = (x @ self._matrix) >= 0.0
        return float(((x[:, :1] * accepted) @ np.ones(9)).sum())

    def __call__(self) -> float:
        started = time.perf_counter()
        sum(self._pool.map(self._chunk, range(2)))
        return time.perf_counter() - started

    def close(self) -> None:
        self._pool.shutdown(wait=True)
