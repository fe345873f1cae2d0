"""Dense primal simplex for tiny maximization problems.

Solves

    maximize    c . z
    subject to  A z <= b,   z >= 0,

under the standing assumption b >= 0, so the all-slack basis is an
immediately feasible starting point and no phase-1 is needed.  That is
exactly the shape of the per-event cone-violation programs (tens of
variables, tens of rows), so a plain dense tableau is the right tool: no
sparsity, no scaling, no external solver.

No module of the package imports this one any more: the exact global
check decides trust in closed form.  It stays here because the test
suite's LP oracle runs those cone programs on it and the benchmark's
tracer (``bench/tracing.py``) imports it and patches
``simplex_maximize`` to count calls and pivots.

Degenerate vertices are routine here (many right-hand sides are 0), so
pivoting follows Bland's rule throughout -- entering variable of lowest
index with a favourable reduced cost, leaving row breaking ratio ties by
lowest basis index -- which rules out cycling.  An iteration cap guards
against the remaining failure mode, numerical livelock.

Each pivot is one rank-1 update of the whole tableau: the pivot row is
divided by the pivot, and every other row r loses ``t[r, col]`` times it.
Element by element that is the same ``a - f * c`` as a row-by-row loop;
rows with f = 0 can at most flip the sign of a zero, which no comparison
sees, so the pivot sequence and the result bits do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "SimplexError", "UnboundedError", "simplex_maximize"]

#: Entries smaller than this in absolute value are treated as exact zeros
#: during pivot selection (reduced costs, pivot candidates, ratio ties).  The
#: cone programs have entries of order 1, so a pivot near 1e-12 is rounding
#: noise from earlier eliminations: dividing by it blows the next pivot up to
#: order 1e12 and returns a vertex that breaks its own constraints by far
#: more than the 1e-9 margin at which the LP oracle counts a violation.
PIVOT_TOL = 1e-9

MAX_ITERATIONS = 10_000


class SimplexError(RuntimeError):
    """The solver exceeded its iteration cap (numerical livelock)."""


class UnboundedError(RuntimeError):
    """The objective is unbounded above on the feasible region."""


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


def simplex_maximize(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> SimplexResult:
    """Maximize c.z subject to a_ub z <= b_ub, z >= 0, with b_ub >= 0."""
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError(f"inconsistent shapes: c {c.shape}, A {a.shape}, b {b.shape}")
    if np.any(b < 0.0):
        raise ValueError("this solver requires b >= 0 (slack basis must be feasible)")

    # Tableau layout: columns [z_0..z_{n-1} | s_0..s_{m-1} | rhs]; last row is
    # the objective in reduced-cost form (negated c), value in its rhs cell.
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -c
    basis = np.arange(n, n + m)

    iterations = 0
    while True:
        reduced = t[m, : n + m]
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            break
        if iterations >= MAX_ITERATIONS:
            raise SimplexError(f"no convergence after {iterations} pivots")
        col = int(candidates[0])  # Bland: lowest eligible index enters.

        column = t[:m, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if rows.size == 0:
            raise UnboundedError(f"column {col} unbounded")
        ratios = t[rows, -1] / column[rows]
        best = ratios.min()
        tied = rows[np.flatnonzero(ratios <= best + PIVOT_TOL)]
        row = int(tied[np.argmin(basis[tied])])  # Bland: lowest basis index leaves.

        t[row] /= t[row, col]
        factor = t[:, col].copy()
        factor[row] = 0.0
        t -= np.outer(factor, t[row])
        basis[row] = col
        iterations += 1

    x = np.zeros(n + m)
    x[basis] = t[:m, -1]
    return SimplexResult(x=x[:n], objective=float(t[m, -1]), iterations=iterations)
