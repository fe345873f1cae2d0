"""Independent oracles the test suite checks the library against.

Nothing here imports the implementation paths it judges:

* score integrals for two-world spaces are reduced to 1-D angular
  quadrature (the integrands are positively homogeneous, so the radial
  Gaussian factor comes out in closed form);
* the cone-violation LP of each acceptance event is solved by the
  package's dense simplex, for every event of positive agent probability,
  and re-solved with scipy's HiGHS solver from an independent formulation
  (free variables, explicit bounds);
* threshold-zero violations and the full local threshold sweep are
  re-derived with broadcast array algebra;
* the class-quotient sign test of the exact global check is re-derived in
  rational arithmetic, by Gaussian elimination over ``fractions.Fraction``;
* a prevision is re-added one product at a time, left to right, in Python
  floats;
* the estimators' acceptance block is kept in the form each estimator once
  wrote out for itself: one stacked product, then the mask and the agent
  column;
* ``rhs_identity``'s integrand and ``estimate_ae_trust``'s hit test are
  kept as first written, with the guards pi(A) > 0 and pi(A^c) > 0 that
  the algebra makes redundant;
* a measure's chunk draw is re-drawn the long way: m uniforms pick a
  component for every sample, whatever the number of components;
* a measure's symmetry under negation is read off its components, bit
  for bit, rather than sampled;
* a prevision's error at a world is classified one gamble at a time, the
  scalar form of ``inaccuracy_mc``'s integrand;
* under a centred Gaussian, the inaccuracy and the gap have closed forms
  for any n, from the bivariate-normal orthant moment;
* under one Gaussian component N(m, s^2 I), and so under any
  ``MeasureSpec``, they are 1-D integrals over X_i of a normal CDF, taken
  by scipy quadrature;
* the n = 3 grid of masses in quarters, whose entries are exact floats,
  is enumerated one scenario per orbit under world permutations.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog

from deference_lab import Event, Gamble, ProbMass, Scenario, ValidationError, simplex
from deference_lab.core import SLACK

#: Radial factor of int_0^inf r^2 exp(-r^2/2) dr / (2 pi) for a standard
#: 2-D Gaussian in polar coordinates.
_RADIAL = math.sqrt(math.pi / 2.0) / (2.0 * math.pi)


def expectation_loop(weights, values) -> float:
    """sum_i w_i * x_i, added one product at a time from 0.0, left to right."""
    acc = 0.0
    for w, v in zip(weights, values):
        acc += float(w) * float(v)
    return acc


class ErrorKind(Enum):
    NONE = "none"
    TYPE1 = "type1"
    TYPE2 = "type2"


def is_almost_desirable(p: ProbMass, x: Gamble) -> bool:
    """Whether x has nonnegative prevision under p (weak inequality)."""
    return expectation_loop(p.weights, x.values) >= 0.0


def error_class(p: ProbMass, i: int, x: Gamble) -> ErrorKind:
    """How p's desirability verdict on x errs at world i, if at all.

    Conventions are fixed once and exactly: acceptance is ``p(X) >= 0``,
    type 1 requires ``x_i < 0``, type 2 requires ``x_i >= 0``.  Boundary
    cases carry no measure, but pinning them keeps unit tests exact.
    """
    if i < 0 or i >= x.n:
        raise ValidationError(f"world index {i} out of range for n={x.n}")
    accepted = is_almost_desirable(p, x)
    payoff = float(x.values[i])
    if accepted and payoff < 0.0:
        return ErrorKind.TYPE1
    if not accepted and payoff >= 0.0:
        return ErrorKind.TYPE2
    return ErrorKind.NONE


def exact_inaccuracy(p_weights, world: int, sigma: float = 1.0) -> float:
    """Inaccuracy of a mass at one world under N(0, sigma^2 I), any n.

    The two error regions are mirror images, so the score is twice
    sigma E[Z1 1{Z1 > 0, Z2 < 0}] for standard normals of correlation
    rho = p_i / ||p||_2, and that orthant moment is (1 - rho) / (2 sqrt(2 pi)).
    """
    p = np.asarray(p_weights, dtype=float)
    rho = p[world] / math.sqrt(float(p @ p))
    return sigma * (1.0 - rho) / math.sqrt(2.0 * math.pi)


def exact_gap(scenario: Scenario, sigma: float = 1.0) -> float:
    """Expected inaccuracy gap under N(0, sigma^2 I), any n, in closed form."""
    pi = scenario.agent.weights
    return sum(
        float(pi[i])
        * (exact_inaccuracy(row.weights, i, sigma) - exact_inaccuracy(pi, i, sigma))
        for i, row in enumerate(scenario.expert)
    )


def component_inaccuracy(p_weights, world: int, mean, scale: float) -> float:
    """Inaccuracy of a mass at one world under N(mean, scale^2 I), any n.

    Given X_i = t, p(X) = p_i t + R with R ~ N(sum_{j != i} p_j m_j,
    scale^2 sum_{j != i} p_j^2), so p accepts with a normal-CDF probability
    and the score is one integral over t: -t P(accept | t) for t < 0 plus
    t P(reject | t) for t >= 0, against the density of X_i.  It is taken
    by scipy's ``quad`` on [m_i - 12 scale, m_i + 12 scale], split at the
    kink t = 0 and at t* = -shift / p_i, where the erfc steps over a width
    of about spread / p_i: a narrow step between nodes reads as "extremely
    bad integrand behavior".  A feature within one scale of an end, where the
    density is below e^-60, is left uncut.  The point mass at world i never
    errs.
    """
    p = np.asarray(p_weights, dtype=float)
    m = np.asarray(mean, dtype=float)
    rest = np.arange(p.size) != world
    spread = scale * math.sqrt(float(p[rest] @ p[rest])) * math.sqrt(2.0)
    if spread == 0.0:
        return 0.0
    shift, p_i, m_i = float(p[rest] @ m[rest]), float(p[world]), float(m[world])
    norm = scale * math.sqrt(2.0 * math.pi)

    def loss(t: float) -> float:
        z = (p_i * t + shift) / spread
        density = math.exp(-0.5 * ((t - m_i) / scale) ** 2) / norm
        if t < 0.0:
            return -t * 0.5 * math.erfc(-z) * density
        return t * 0.5 * math.erfc(z) * density

    lo, hi = m_i - 12.0 * scale, m_i + 12.0 * scale
    cuts = {0.0, -shift / p_i} if p_i != 0.0 else {0.0}
    edges = [lo, *sorted(c for c in cuts if lo + scale < c < hi - scale), hi]
    return sum(
        quad(loss, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


def component_gap(scenario: Scenario, mean, scale: float) -> float:
    """Expected inaccuracy gap under one component N(mean, scale^2 I)."""
    pi = scenario.agent.weights
    return sum(
        float(pi[i])
        * (
            component_inaccuracy(row.weights, i, mean, scale)
            - component_inaccuracy(pi, i, mean, scale)
        )
        for i, row in enumerate(scenario.expert)
    )


def measure_inaccuracy(p_weights, world: int, measure) -> float:
    """Inaccuracy under a ``MeasureSpec``: its components' scores by weight."""
    weights, means, scales = measure.components(len(p_weights))
    return sum(
        float(w) * component_inaccuracy(p_weights, world, m, float(s))
        for w, m, s in zip(weights, means, scales)
    )


def measure_gap(scenario: Scenario, measure) -> float:
    """Expected inaccuracy gap under a ``MeasureSpec``: sum_c w_c gap_c."""
    weights, means, scales = measure.components(scenario.n)
    return sum(
        float(w) * component_gap(scenario, m, float(s)) for w, m, s in zip(weights, means, scales)
    )


def stacked_acceptance(scenario: Scenario, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(expert acceptance mask, agent prevision column) of each sample row."""
    n = scenario.n
    stacked_t = np.vstack([scenario.expert_matrix(), scenario.agent.weights]).T
    prev = xs @ stacked_t
    accepted = prev[:, :n] >= 0.0
    agent_value = prev[:, n].copy()
    return accepted, agent_value


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


def _event_lp(scenario: Scenario, members: frozenset[int]) -> tuple[float, np.ndarray]:
    """Margin LP for one acceptance event; returns (optimum, witness gamble).

    Variables are x = u - w (u, w >= 0) plus the margin s.  The 3n + 1 rows
    of ``[X | -X | s] z <= b`` are, in order: -P_i(x) <= 0 for i inside the
    event and P_i(x) + s <= 0 for i outside (both ascending), the agent's
    partial expectation over the event plus s <= 0, and the unit box that
    normalizes the cone, x_j <= 1 and -x_j <= 1 interleaved.  Bland's rule
    breaks ties on slack indices, so this order is part of the result bits.
    All right-hand sides are 0 or 1, so the slack basis starts feasible.
    """
    n = scenario.n
    e = scenario.expert_matrix()
    pi = scenario.agent.weights
    inside = np.zeros(n, dtype=bool)
    inside[list(members)] = True

    box = np.kron(np.eye(n), [[1.0], [-1.0]])
    x_part = np.vstack([-e[inside], e[~inside], np.where(inside, pi, 0.0), box])
    a_ub = np.zeros((3 * n + 1, 2 * n + 1))
    a_ub[:, :n] = x_part
    a_ub[:, n : 2 * n] = -x_part
    a_ub[len(members) : n + 1, -1] = 1.0  # outside rows and the agent row
    b_ub = np.zeros(3 * n + 1)
    b_ub[n + 1 :] = 1.0  # box rows

    c = np.zeros(2 * n + 1)
    c[-1] = 1.0
    result = simplex.simplex_maximize(c, a_ub, b_ub)
    return result.objective, result.x[:n] - result.x[n : 2 * n]


def event_violation_margin(scenario: Scenario, event: Event) -> tuple[float, Gamble]:
    """Largest strict-violation margin achievable with acceptance event A.

    Zero means no gamble with ``[P(X) >= 0] == A`` violates trust there.
    """
    if event.n != scenario.n:
        raise ValidationError(f"event is over {event.n} worlds, scenario over {scenario.n}")
    if not event.members:
        raise ValidationError("the empty event never defines a conditional prevision")
    margin, x = _event_lp(scenario, event.members)
    return margin, Gamble(x)


def event_margins(scenario: Scenario) -> dict[frozenset[int], float]:
    """The LP enumeration: every event of positive agent probability, its margin.

    Trust holds iff no margin is strictly positive (above rounding noise).
    """
    n = scenario.n
    pi = scenario.agent.weights
    margins = {}
    for mask in range((1 << n) - 1, 0, -1):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if any(pi[i] > 0.0 for i in members):
            margins[members] = _event_lp(scenario, members)[0]
    return margins


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


def component_pick_sampler(measure, dim: int):
    """A measure's chunk-sampler that always picks a component by weight.

    m uniforms pick the components, then m * dim standard normals are
    scaled and shifted by the picked ones, for a plain Gaussian too.
    """
    weights, means, scales = measure.components(dim)
    edges = np.cumsum(weights)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        which = np.searchsorted(edges, rng.random(m), side="right")
        np.minimum(which, len(weights) - 1, out=which)  # a last edge may round below 1.0
        z = rng.standard_normal((m, dim))
        z *= scales[which, None]
        z += means[which]
        return z

    return draw


def assert_negation_symmetric(measure, dim: int) -> None:
    """Assert, bit for bit, that a measure's components are negation-symmetric.

    Row 0 is the base Gaussian: positive weight and scale, mean +0.0 in
    every coordinate.  The other rows come in adjacent pairs whose weights
    and scales are bit-equal and whose means are exact negations, so the
    mixture density satisfies f(-x) = f(x) term by term.
    """
    weights, means, scales = measure.components(dim)
    count = len(weights)
    assert count % 2 == 1 and means.shape == (count, dim) and scales.shape == (count,)
    assert weights[0] > 0.0 and scales[0] > 0.0
    assert np.array_equal(means[0].view(np.int64), np.zeros(dim, dtype=np.int64))  # +0.0
    plus, minus = slice(1, None, 2), slice(2, None, 2)
    assert np.array_equal(weights[plus].view(np.int64), weights[minus].view(np.int64))
    assert np.array_equal(scales[plus].view(np.int64), scales[minus].view(np.int64))
    assert np.array_equal((-means[plus]).view(np.int64), means[minus].view(np.int64))


def random_measure(rng: np.random.Generator, dim: int, pairs: int | None = None):
    """A random admissible measure: Gaussian base plus ``pairs`` (else 1-2) bump pairs."""
    from deference_lab import BumpPair, Gamble, MeasureSpec

    count = int(rng.integers(1, 3)) if pairs is None else pairs
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


def garbled_scenario(rng: np.random.Generator, n: int, zero_mass: bool = False) -> Scenario:
    """k > r distinct expert rows of positive agent mass, mixtures of r base rows.

    The k x n matrix of those distinct rows has rank r < k.  With
    ``zero_mass`` the last world gets no agent mass and a further mixture
    as its row (n >= 4, so that three worlds keep their mass).
    """
    m = n - 1 if zero_mass else n  # worlds with agent mass
    assert m >= 3
    r = int(rng.integers(2, m))
    k = int(rng.integers(r + 1, m + 1))
    base = rng.dirichlet(np.ones(n), size=r)
    distinct = rng.dirichlet(np.ones(r), size=k + 1) @ base
    agent = rng.dirichlet(np.ones(n))
    if zero_mass:
        agent[-1] = 0.0
        agent /= agent.sum()
    return Scenario.from_weights(agent, [distinct[i % k if i < m else k] for i in range(n)])


def _support(rng: np.random.Generator, n: int) -> np.ndarray:
    """A mask of 2..n-1 worlds with agent mass; the others get none."""
    support = np.zeros(n, dtype=bool)
    support[rng.choice(n, size=int(rng.integers(2, n)), replace=False)] = True
    return support


def coarse_zero_mass_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Coarse trusting on the agent's support, arbitrary rows off it.

    On the support the expert learns which cell of a random partition holds
    the truth; each zero-mass world gets a Dirichlet row.  Trust holds.
    """
    assert n >= 3
    support = _support(rng, n)
    agent = np.where(support, rng.dirichlet(np.ones(n)), 0.0)
    agent /= agent.sum()
    cells = rng.integers(0, max(1, support.sum() // 2), size=n)
    rows = []
    for i in range(n):
        if support[i]:
            inside = support & (cells == cells[i])
            rows.append(np.where(inside, agent, 0.0) / agent[inside].sum())
        else:
            rows.append(rng.dirichlet(np.ones(n)))
    return Scenario.from_weights(agent, rows)


def informed_zero_mass_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Fully informed on the agent's support, averaged rows off it.

    A supported world's row is its point mass; each zero-mass world's row
    is the average of the point masses of two or more supported worlds, so
    the distinct rows are linearly dependent.  Trust holds.
    """
    assert n >= 3
    support = _support(rng, n)
    agent = np.where(support, rng.dirichlet(np.ones(n)), 0.0)
    agent /= agent.sum()
    points = np.flatnonzero(support)
    rows = []
    for i in range(n):
        if support[i]:
            rows.append(np.eye(n)[i])
        else:
            picked = rng.choice(points, size=int(rng.integers(2, points.size + 1)), replace=False)
            rows.append(np.eye(n)[picked].mean(axis=0))
    return Scenario.from_weights(agent, rows)


def dyadic_mass(rng: np.random.Generator, n: int, units: int) -> np.ndarray:
    """A mass in multiples of 1/units: that many units dealt to random worlds."""
    return np.bincount(rng.integers(0, n, size=units), minlength=n) / units


def quarter_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m rows of multiples of 1/4 in [-2, 2], some all +0.0, some all -0.0.

    With dyadic masses every prevision of such a row is exact in any
    summation order, so a tie P(X) = 0 is a tie for every route.
    """
    xs = rng.integers(-8, 9, size=(m, n)) / 4.0
    xs[::13] = 0.0
    xs[::17] = -0.0
    xs[::5, 0] = -0.0
    return xs


def tie_rows(weights: np.ndarray) -> np.ndarray:
    """Rows p_k e_j - p_j e_k for j < k: their prevision under p is exactly 0."""
    n = weights.size
    rows = []
    for j in range(n):
        for k in range(j + 1, n):
            row = np.zeros(n)
            row[j], row[k] = weights[k], -weights[j]
            rows.append(row)
    return np.array(rows)


def signed_zero_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m standard normal rows with +0.0 and -0.0 entries, some rows all zero."""
    xs = rng.standard_normal((m, n))
    xs[::7, 1] = 0.0
    xs[::5, 0] = -0.0
    xs[::11] = 0.0
    xs[::13] = -0.0
    return xs


def dyadic_zero_mass_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Masses in sixteenths, the agent's on 2..n-1 worlds only.

    Each expert row is the agent's row, a point mass or random sixteenths,
    so with ``quarter_rows`` every prevision is exact and acceptance events
    of zero agent mass come up often.
    """
    assert n >= 3
    agent = np.bincount(rng.choice(np.flatnonzero(_support(rng, n)), size=16), minlength=n) / 16
    kinds = (lambda: agent, lambda: np.eye(n)[rng.integers(n)], lambda: dyadic_mass(rng, n, 16))
    return Scenario.from_weights(agent, [kinds[rng.integers(3)]() for _ in range(n)])


def zero_mass_suite(rng: np.random.Generator) -> list[tuple[Scenario, np.ndarray]]:
    """(scenario, sample rows) pairs that reach every zero-mass case, n = 3..7.

    Per n: six ``dyadic_zero_mass_scenario`` with ``quarter_rows`` plus the
    ``tie_rows`` of the agent and of every expert, and one coarse and one
    informed zero-mass scenario with ``signed_zero_rows``.  Asserts that
    each case of ``_zero_mass_cases`` comes up at least 20 times.
    """
    suite = []
    for n in range(3, 8):
        for _ in range(6):
            scenario = dyadic_zero_mass_scenario(rng, n)
            weights = [scenario.agent.weights, *scenario.expert_matrix()]
            xs = np.vstack([quarter_rows(rng, 400, n), *map(tie_rows, weights)])
            suite.append((scenario, xs))
        for make in (coarse_zero_mass_scenario, informed_zero_mass_scenario):
            suite.append((make(rng, n), signed_zero_rows(rng, 2_000, n)))
    cases = {}
    for scenario, xs in suite:
        for case, count in _zero_mass_cases(scenario, xs).items():
            cases[case] = cases.get(case, 0) + count
    assert min(cases.values()) >= 20, cases
    return suite


def wide_scenario_rows(rng: np.random.Generator) -> tuple[Scenario, np.ndarray]:
    """An n = 300 scenario, past a byte's count of experts, and rows for it.

    The agent has zero mass on every seventh world but the last; 256
    experts equal it and 44 are point masses at worlds other than the
    last.  Most rows are normals whose point-mass coordinates are >= 0 and
    whose last coordinate brings pi(X) to about 0, so either all 300
    experts accept or just the 44 do, and on about one full-acceptance row
    in ten a re-summed pi(X 1_A) takes the other sign from the agent
    column.  ``signed_zero_rows`` add +-0.0, and the
    agent's ``tie_rows`` on its first 20 worlds add exact ties P_i(X) = 0.
    """
    n = 300
    agent = rng.dirichlet(np.ones(n))
    agent[:-1:7] = 0.0
    agent /= agent.sum()
    points = rng.choice(np.arange(n - 1), size=44, replace=False)
    scenario = Scenario.from_weights(agent, [agent] * 256 + list(np.eye(n)[points]))
    pi = scenario.agent.weights
    near_zero = rng.standard_normal((3_000, n))
    near_zero[:, points] = np.abs(near_zero[:, points])
    near_zero[:, -1] -= (near_zero @ pi) / pi[-1]
    ties = np.zeros((190, n))
    ties[:, :20] = tie_rows(pi[:20])
    return scenario, np.vstack([near_zero, signed_zero_rows(rng, 1_000, n), ties])


def _zero_mass_cases(scenario: Scenario, xs: np.ndarray) -> dict[str, int]:
    """How many rows of xs fall in each case the zero-mass guards once split off.

    A is the acceptance event [P(X) >= 0] of the row.
    """
    pi = scenario.agent.weights
    previsions = xs @ scenario.expert_matrix().T
    accepted = previsions >= 0.0
    some, every = accepted.any(axis=1), accepted.all(axis=1)
    zero = xs == 0.0
    live = ~zero.all(axis=1)
    return {
        "pi(A) = 0, A nonempty": int(np.sum((accepted @ pi == 0.0) & some)),
        "pi(A^c) = 0, A^c nonempty": int(np.sum((~accepted @ pi == 0.0) & ~every)),
        "A empty": int(np.sum(~some)),
        "A everything": int(np.sum(every)),
        "P_i(X) = 0, X != 0": int(np.sum((previsions == 0.0).any(axis=1) & live)),
        "pi(X) = 0, X != 0": int(np.sum((xs @ pi == 0.0) & live)),
        "X = +0.0": int(np.sum((zero & ~np.signbit(xs)).all(axis=1))),
        "X = -0.0": int(np.sum((zero & np.signbit(xs)).all(axis=1))),
    }


def guarded_identity_values(scenario: Scenario, xs: np.ndarray) -> np.ndarray:
    """``rhs_identity``'s integrand as first written, with zero-mass guards.

    h(X) = -pi(X 1_A) if pi(A) > 0 and pi(X) < 0, +pi(X 1_{A^c}) if
    pi(A^c) > 0 and pi(X) >= 0, zero otherwise.
    """
    pi = scenario.agent.weights
    accepted, agent_value = stacked_acceptance(scenario, xs)
    accept_prob = accepted @ pi
    accept_part = (xs * accepted) @ pi
    reject_prob = (~accepted) @ pi
    reject_part = (xs * ~accepted) @ pi
    first = (accept_prob > 0.0) & (agent_value < 0.0)
    second = (reject_prob > 0.0) & (agent_value >= 0.0)
    return -accept_part * first + reject_part * second


def guarded_ae_hits(scenario: Scenario, xs: np.ndarray) -> np.ndarray:
    """``estimate_ae_trust``'s hit test as first written: pi(A) > 0 and pi(X 1_A) < 0."""
    pi = scenario.agent.weights
    accepted, agent_value = stacked_acceptance(scenario, xs)
    event_prob = accepted @ pi
    partial = (xs * accepted) @ pi
    # Full acceptance reuses the agent column: no sub-ulp violations.
    partial = np.where(accepted.all(axis=1), agent_value, partial)
    return (event_prob > 0.0) & (partial < 0.0)


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


def exact_quotient_holds(scenario: Scenario, slack: float = SLACK) -> bool | None:
    """The class-quotient trust decision recomputed in exact rationals (n <= 6).

    Groups identical expert rows into classes, drops the classes of zero
    agent mass, solves the normal equations ``(E' E'^T) K' = E' D`` exactly,
    where column c of D is the agent mass on class c, and applies the float
    decision's one slack to the exact least-squares residual (Euclidean
    norm) and to the signs of K'.  Returns None when the
    remaining distinct rows are exactly linearly dependent.
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
    kept = [c for c in range(len(distinct)) if any(pi[j] for j in range(n) if label[j] == c)]
    distinct = [distinct[c] for c in kept]
    label = [kept.index(c) if c in kept else -1 for c in label]
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
        if sum(v * v for v in residual) > Fraction(slack) ** 2:
            return False
    if any(kq[d][c] > slack for d in range(k) for c in range(k) if d != c):
        return False
    return all(sum(kq[d]) >= -slack for d in range(k))


def exact_witness_violates(scenario: Scenario, witness) -> bool:
    """Whether a witness gamble violates trust at threshold zero, in exact rationals.

    Recomputes every expert prevision over ``fractions.Fraction``, takes the
    exact acceptance event A, and checks ``pi(A) > 0`` and ``pi(X 1_A) < 0``.
    """
    x = [Fraction(float(v)) for v in witness.values]
    pi = [Fraction(float(w)) for w in scenario.agent.weights]
    accepted = [
        sum(Fraction(float(w)) * v for w, v in zip(row, x)) >= 0
        for row in scenario.expert_matrix()
    ]
    inside = [j for j in range(scenario.n) if accepted[j]]
    return sum(pi[j] for j in inside) > 0 and sum(pi[j] * x[j] for j in inside) < 0


#: Every probability vector on three worlds in quarters: 15 rows.
QUARTER_ROWS = [(a / 4, b / 4, (4 - a - b) / 4) for a in range(5) for b in range(5 - a)]


@functools.cache
def quarter_grid_orbits() -> list[tuple[tuple[int, ...], int]]:
    """One scenario per orbit of the n = 3 quarter grid under world permutations.

    A scenario is (agent, expert rows) as indices into ``QUARTER_ROWS``.
    Relabelling worlds by s maps the agent to agent[s] and expert row k to
    row s[k] with its columns in the order s.  Returns (smallest key of the
    orbit, orbit size); the sizes add up to the 15**4 scenarios of the grid.
    Cached: one list per process, which callers must not mutate.
    """
    index = {row: k for k, row in enumerate(QUARTER_ROWS)}
    perms = list(itertools.permutations(range(3)))
    moved = [[index[tuple(row[j] for j in s)] for row in QUARTER_ROWS] for s in perms]
    orbits = []
    for key in itertools.product(range(len(QUARTER_ROWS)), repeat=4):
        agent, expert = key[0], key[1:]
        orbit = {(m[agent],) + tuple(m[expert[i]] for i in s) for m, s in zip(moved, perms)}
        if key == min(orbit):
            orbits.append((key, len(orbit)))
    return orbits
