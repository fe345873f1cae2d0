"""Independent oracles the test suite checks the library against.

Nothing here imports the implementation paths it judges:

* score integrals for two-world spaces are reduced to 1-D angular
  quadrature (the integrands are positively homogeneous, so the radial
  Gaussian factor comes out in closed form);
* the cone-violation LP is re-solved with scipy's HiGHS solver from an
  independent formulation (free variables, explicit bounds);
* threshold-zero violations and the full local threshold sweep are
  re-derived with broadcast array algebra;
* the class-quotient sign test of the exact global check is re-derived in
  rational arithmetic, by Gaussian elimination over ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog

from deference_lab import Scenario

#: Radial factor of int_0^inf r^2 exp(-r^2/2) dr / (2 pi) for a standard
#: 2-D Gaussian in polar coordinates.
_RADIAL = math.sqrt(math.pi / 2.0) / (2.0 * math.pi)


def _angles_of_line(normal: np.ndarray) -> list[float]:
    """Angles where normal . (cos t, sin t) = 0, within [0, 2 pi)."""
    base = math.atan2(normal[1], normal[0])
    return [(base + math.pi / 2.0) % (2.0 * math.pi), (base - math.pi / 2.0) % (2.0 * math.pi)]


def _quad_breakpoints(normals: list[np.ndarray]) -> list[float]:
    points: set[float] = set()
    for normal in normals:
        points.update(_angles_of_line(np.asarray(normal, dtype=float)))
    return sorted(points)


def wedge_inaccuracy(p_weights, world: int, sigma: float = 1.0) -> float:
    """Inaccuracy of a two-world mass at one world, by angular quadrature.

    The error regions are cones, so under a centered Gaussian of scale
    sigma the integral of |x_i| over them is sigma * _RADIAL times the
    angular integral of |u_i| over the error directions.
    """
    p = np.asarray(p_weights, dtype=float)
    assert p.shape == (2,)

    def integrand(theta: float) -> float:
        u = np.array([math.cos(theta), math.sin(theta)])
        accepts = float(p @ u) >= 0.0
        gains = u[world] >= 0.0
        return abs(u[world]) if accepts != gains else 0.0

    axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    value, _ = quad(
        integrand, 0.0, 2.0 * math.pi, points=_quad_breakpoints([p, *axes]), limit=400
    )
    return sigma * _RADIAL * value


def wedge_gap(scenario: Scenario, sigma: float = 1.0) -> float:
    """Expected inaccuracy gap for a two-world scenario, by quadrature."""
    assert scenario.n == 2
    pi = scenario.agent.weights
    rows = [p.weights for p in scenario.expert]

    def integrand(theta: float) -> float:
        u = np.array([math.cos(theta), math.sin(theta)])
        agent_accepts = float(pi @ u) >= 0.0
        total = 0.0
        for i in range(2):
            gains = u[i] >= 0.0
            expert_errs = (float(rows[i] @ u) >= 0.0) != gains
            agent_errs = agent_accepts != gains
            total += pi[i] * abs(u[i]) * (float(expert_errs) - float(agent_errs))
        return total

    axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    value, _ = quad(
        integrand, 0.0, 2.0 * math.pi, points=_quad_breakpoints([pi, *rows, *axes]), limit=400
    )
    return sigma * _RADIAL * value


def lp_margin_scipy(scenario: Scenario, members: frozenset[int]) -> float:
    """HiGHS solution of the cone-violation program for one event."""
    n = scenario.n
    e = scenario.expert_matrix()
    pi = scenario.agent.weights
    rows = []
    for i in sorted(members):
        rows.append(np.concatenate([-e[i], [0.0]]))
    for i in sorted(set(range(n)) - members):
        rows.append(np.concatenate([e[i], [1.0]]))
    masked = np.where(np.isin(np.arange(n), sorted(members)), pi, 0.0)
    rows.append(np.concatenate([masked, [1.0]]))
    c = np.zeros(n + 1)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * n + [(0.0, None)]
    result = linprog(
        c, A_ub=np.vstack(rows), b_ub=np.zeros(len(rows)), bounds=bounds, method="highs"
    )
    assert result.status == 0, result.message
    return -result.fun


def t0_violation_mask(scenario: Scenario, xs: np.ndarray) -> np.ndarray:
    """Which sampled gambles violate trust at threshold zero (defined case).

    When every world accepts, the partial expectation over the acceptance
    event *is* the agent's prevision, so that value is substituted exactly;
    otherwise a one-ulp mismatch between the two float routes would turn
    mathematically tied comparisons (expert row equal to the agent) into
    coin flips.
    """
    accepts = np.stack([xs @ p.weights for p in scenario.expert], axis=1) >= 0.0
    pi = scenario.agent.weights
    event_prob = accepts @ pi
    partial = np.einsum("kj,kj,j->k", xs, accepts.astype(float), pi)
    partial = np.where(accepts.all(axis=1), xs @ pi, partial)
    return (event_prob > 0.0) & (partial < 0.0)


def local_sweep_violation_mask(scenario: Scenario, xs: np.ndarray) -> np.ndarray:
    """Which sampled gambles fail the full threshold sweep (any real t).

    Broadcast form of the finite reduction: for each sample, every attained
    expert value is a candidate threshold; violation means some threshold's
    event has positive agent probability and conditional value below it.
    Full-space threshold events compare the agent's prevision against the
    threshold directly (see :func:`t0_violation_mask`).
    """
    pi = scenario.agent.weights
    n = scenario.n
    stacked = xs @ np.vstack([scenario.expert_matrix(), pi]).T  # one shared product
    attained = stacked[:, :n]  # (m, n)
    agent_dot = stacked[:, n]
    events = attained[:, None, :] >= attained[:, :, None]  # (m, thr, world)
    prob = events @ pi
    partial = np.einsum("mtj,mj,j->mt", events, xs, pi)
    below = partial < prob * attained
    full = events.all(axis=2)
    below = np.where(full, agent_dot[:, None] < attained, below)
    violated = (prob > 0.0) & below
    return violated.any(axis=1)


def random_measure(rng: np.random.Generator, dim: int):
    """A random admissible measure: Gaussian base plus 1-2 bump pairs."""
    from deference_lab import BumpPair, Gamble, MeasureSpec

    count = int(rng.integers(1, 3))
    budget = float(rng.uniform(0.2, 0.8))
    shares = rng.dirichlet(np.ones(count)) * budget
    bumps = tuple(
        BumpPair(
            center=Gamble(rng.normal(0.0, 2.0, dim)),
            scale=float(rng.uniform(0.2, 1.0)),
            weight=float(share),
        )
        for share in shares
    )
    return MeasureSpec.mixture(float(rng.uniform(0.5, 2.0)), bumps)


def random_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """A scenario with Dirichlet-uniform agent and expert rows."""
    return Scenario.from_weights(
        rng.dirichlet(np.ones(n)), [rng.dirichlet(np.ones(n)) for _ in range(n)]
    )


def trusting_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """A scenario built to satisfy trust: experts mix truth into the agent.

    With P_i = a * (point mass at i) + (1 - a) * agent, the acceptance event
    of any gamble is an upper level set of its payoffs, and conditioning the
    agent on an upper level set can only push the expectation up past the
    threshold.
    """
    agent = rng.dirichlet(np.ones(n))
    a = float(rng.uniform(0.0, 1.0))
    rows = []
    for i in range(n):
        point = np.zeros(n)
        point[i] = 1.0
        rows.append(a * point + (1.0 - a) * agent)
    return Scenario.from_weights(agent, rows)


def coarse_trusting_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """The expert learns which cell of a random partition holds the truth.

    P_i is the agent conditioned on the cell of world i, so expert rows
    repeat within a cell and trust holds.
    """
    agent = rng.dirichlet(np.ones(n))
    cells = rng.integers(0, max(1, n // 2), size=n)
    rows = []
    for i in range(n):
        inside = cells == cells[i]
        rows.append(np.where(inside, agent, 0.0) / agent[inside].sum())
    return Scenario.from_weights(agent, rows)


def dependent_rows_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Three distinct expert rows, the third the average of the first two."""
    assert n >= 3
    first, second = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    distinct = [first, second, 0.5 * (first + second)]
    return Scenario.from_weights(rng.dirichlet(np.ones(n)), [distinct[i % 3] for i in range(n)])


def _solve_exact(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Solve a X = b for square a by Gauss-Jordan elimination; None if singular."""
    k = len(a)
    rows = [a[i] + b[i] for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


def exact_quotient_holds(
    scenario: Scenario, residual_slack: float = 1e-10, sign_slack: float = 1e-12
) -> bool | None:
    """The class-quotient trust decision recomputed in exact rationals (n <= 6).

    Groups identical expert rows into classes, solves the normal equations
    ``(E' E'^T) K' = E' D`` exactly, where column c of D is the agent mass
    on class c, and applies the same slacks as the float decision to the
    exact least-squares residual (Euclidean norm) and to the signs of K'.
    Returns None when the distinct rows are exactly linearly dependent.
    """
    assert scenario.n <= 6
    n = scenario.n
    pi = [Fraction(float(w)) for w in scenario.agent.weights]
    distinct: list[list[Fraction]] = []
    label = []
    for row in scenario.expert_matrix():
        exact = [Fraction(float(w)) for w in row]
        if exact not in distinct:
            distinct.append(exact)
        label.append(distinct.index(exact))
    k = len(distinct)
    masses = [[pi[j] if label[j] == c else Fraction(0) for c in range(k)] for j in range(n)]
    gram = [[sum(a * b for a, b in zip(r, s)) for s in distinct] for r in distinct]
    rhs = [[sum(r[j] * masses[j][c] for j in range(n)) for c in range(k)] for r in distinct]
    kq = _solve_exact(gram, rhs)
    if kq is None:
        return None
    for c in range(k):
        residual = [
            masses[j][c] - sum(distinct[d][j] * kq[d][c] for d in range(k)) for j in range(n)
        ]
        if sum(v * v for v in residual) > Fraction(residual_slack) ** 2:
            return False
    if any(kq[d][c] > sign_slack for d in range(k) for c in range(k) if d != c):
        return False
    return all(sum(kq[d]) >= -sign_slack for d in range(k))
