"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

Each workload turns a seed into a pool of *rounds*.  A round is a fixed
list of operations whose mix of families and sizes is the same for every
seed; only the random weights inside each scenario change.  The timed loop
runs whole rounds, so every run sees the same mix, and the median and 90th
percentile land inside one size class instead of on the edge between two.

``run`` is the only timed call; ``family`` names the scenario family of
an operation, for the traced run's per-size times.  ``check`` and
``final_checks`` run after the timed loop and return a list of problems
(empty when the outputs are correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from calibration import InterpreterKernel, VectorKernel
from deference_lab import accuracy, cli, trust
from deference_lab.core import Gamble
from deference_lab.measures import BumpPair, MeasureSpec
from deference_lab.trust import Scenario

#: Margin above which the scipy cross-check calls an LP optimum a violation;
#: well above HiGHS's feasibility tolerance, far below any real margin.
CROSS_CHECK_TOL = 1e-7


def random_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Dirichlet-uniform agent and expert rows."""
    return Scenario.from_weights(
        rng.dirichlet(np.ones(n)), [rng.dirichlet(np.ones(n)) for _ in range(n)]
    )


def trusting_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """Experts P_i = a * (point mass at i) + (1 - a) * agent: trust holds."""
    agent = rng.dirichlet(np.ones(n))
    a = float(rng.uniform(0.0, 1.0))
    return Scenario.from_weights(agent, [a * np.eye(n)[i] + (1.0 - a) * agent for i in range(n)])


def repeated_row_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """About n/3 distinct expert rows (singular expert matrix).

    The agent gives the last world zero mass, so the events inside it have
    zero probability and are skipped by the exact check.
    """
    distinct = [rng.dirichlet(np.ones(n)) for _ in range(max(1, round(n / 3)))]
    agent = np.append(rng.dirichlet(np.ones(n - 1)), 0.0)
    return Scenario.from_weights(agent, [distinct[i % len(distinct)] for i in range(n)])


FAMILIES = {
    "random": random_scenario,
    "trusting": trusting_scenario,
    "repeated": repeated_row_scenario,
}


def random_measure(rng: np.random.Generator, dim: int) -> MeasureSpec:
    """An admissible mixture: Gaussian base plus one or two bump pairs."""
    count = int(rng.integers(1, 3))
    shares = rng.dirichlet(np.ones(count)) * float(rng.uniform(0.2, 0.8))
    bumps = tuple(
        BumpPair(
            center=Gamble(rng.normal(0.0, 2.0, dim)),
            scale=float(rng.uniform(0.2, 1.0)),
            weight=float(share),
        )
        for share in shares
    )
    return MeasureSpec.mixture(float(rng.uniform(0.5, 2.0)), bumps)


def op_seed(base_seed: int, k: int) -> int:
    """Estimator seed of the k-th execution: distinct per execution and per run seed."""
    return base_seed * 1_000_003 + k


def within_identity_tolerance(gap: float, gap_se: float, ident: float, ident_se: float) -> bool:
    """Gap and identity agree within 3 combined standard errors + 1e-12."""
    return abs(gap - ident) <= 3.0 * math.hypot(gap_se, ident_se) + 1e-12


# ---------------------------------------------------------------------------
# global-exact
# ---------------------------------------------------------------------------


class GlobalExact:
    """One exact ``check_global_trust`` per operation, n = 5..9."""

    name = "global-exact"
    threads = 1
    kernel = InterpreterKernel
    pool_rounds = 8
    #: Rough length of one round at the baseline commit; sizes the traced run.
    round_s = 4.0
    #: (family, n, copies) per round, weighted toward small n.
    MIX = (
        ("random", 5, 4),
        ("random", 6, 6),
        ("random", 7, 2),
        ("random", 8, 3),
        ("trusting", 5, 1),
        ("trusting", 6, 1),
        ("trusting", 7, 1),
        ("trusting", 8, 1),
        ("trusting", 9, 1),
        ("repeated", 5, 1),
        ("repeated", 6, 1),
        ("repeated", 7, 1),
        ("repeated", 8, 1),
        ("repeated", 9, 1),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.rounds = [
            [
                (family, FAMILIES[family](rng, n))
                for family, n, copies in self.MIX
                for _ in range(copies)
            ]
            for _ in range(self.pool_rounds)
        ]
        self._cross_checked: dict[int, str | None] = {}

    def run(self, op, k: int):
        return trust.check_global_trust(op[1])

    def family(self, op) -> str:
        return op[0]

    def check(self, op, verdict) -> list[str]:
        family, scenario = op
        if verdict.holds:
            if family == "trusting":
                return []
            key = id(scenario)
            if key not in self._cross_checked:
                self._cross_checked[key] = _highs_disagreement(scenario)
            return [self._cross_checked[key]] if self._cross_checked[key] else []
        if family == "trusting":
            return [f"trusting n={scenario.n} scenario reported as violating"]
        return _exact_witness_problems(scenario, verdict)

    def final_checks(self, executions) -> list[str]:
        return []


def _exact_witness_problems(scenario: Scenario, verdict) -> list[str]:
    """Re-verify a failing verdict's witness in rational arithmetic."""
    x = [Fraction(float(v)) for v in verdict.witness.values]
    pi = [Fraction(float(w)) for w in scenario.agent.weights]
    event = {
        i
        for i, row in enumerate(scenario.expert)
        if sum(Fraction(float(w)) * xj for w, xj in zip(row.weights, x)) >= 0
    }
    problems = []
    if event != set(verdict.witness_event.members):
        problems.append(f"witness event {sorted(verdict.witness_event.members)} != {sorted(event)}")
    if not sum(pi[i] for i in event) > 0:
        problems.append("witness event has zero agent probability")
    if not sum(pi[i] * x[i] for i in event) < 0:
        problems.append("witness has pi(X 1_A) >= 0 in exact arithmetic")
    return problems


def _highs_disagreement(scenario: Scenario) -> str | None:
    """Solve every event's cone LP with scipy's HiGHS; report a violation."""
    from scipy.optimize import linprog  # imported only after timing

    n = scenario.n
    e = scenario.expert_matrix()
    pi = scenario.agent.weights
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    bounds = [(-1.0, 1.0)] * n + [(0.0, None)]
    for mask in range(1, 1 << n):
        inside = np.array([mask >> i & 1 for i in range(n)], dtype=bool)
        if not np.any(pi[inside] > 0.0):
            continue
        rows = [np.append(-e[i], 0.0) if inside[i] else np.append(e[i], 1.0) for i in range(n)]
        rows.append(np.append(np.where(inside, pi, 0.0), 1.0))
        result = linprog(
            cost, A_ub=np.vstack(rows), b_ub=np.zeros(n + 1), bounds=bounds, method="highs"
        )
        if result.status != 0:
            return f"HiGHS failed on event {np.flatnonzero(inside).tolist()}: {result.message}"
        if -result.fun > CROSS_CHECK_TOL:
            return (
                f"trust reported to hold, but HiGHS finds margin {-result.fun} "
                f"on event {np.flatnonzero(inside).tolist()}"
            )
    return None


# ---------------------------------------------------------------------------
# mc-scores
# ---------------------------------------------------------------------------


class McScores:
    """One score bundle per operation: gap, identity, ae-trust, inaccuracy."""

    name = "mc-scores"
    threads = 2
    kernel = VectorKernel
    pool_rounds = 4
    round_s = 1.4
    #: Samples per estimator call: two 65,536-sample chunks.
    SAMPLES = 1 << 17
    #: (n, measure) per round; n = 8 is the majority so that the median and
    #: the 90th percentile both fall inside the n = 8 operations.
    MIX = (
        (4, "gaussian"),
        (4, "mixture"),
        (8, "gaussian"),
        (8, "mixture"),
        (8, "gaussian"),
        (8, "mixture"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.base_seed = seed
        self.rounds = []
        for _ in range(self.pool_rounds):
            ops = []
            for n, kind in self.MIX:
                scenario = random_scenario(rng, n)
                if kind == "gaussian":
                    measure = MeasureSpec.gaussian(float(rng.uniform(0.5, 2.0)))
                else:
                    measure = random_measure(rng, n)
                ops.append((scenario, measure, int(rng.integers(n))))
            self.rounds.append(ops)

    def run(self, op, k: int):
        scenario, measure, world = op
        seed = op_seed(self.base_seed, k)
        return (
            accuracy.expected_gap(scenario, measure, self.SAMPLES, seed),
            accuracy.rhs_identity(scenario, measure, self.SAMPLES, seed),
            trust.estimate_ae_trust(scenario, measure.sigma, self.SAMPLES, seed),
            accuracy.inaccuracy_mc(scenario.agent, world, measure, self.SAMPLES, seed),
        )

    def family(self, op) -> str:
        return "random"

    def check(self, op, result) -> list[str]:
        gap, ident, ae, inacc = result
        problems = []
        for est in result:
            if est.samples != self.SAMPLES or not (
                math.isfinite(est.value) and est.std_error >= 0.0
            ):
                problems.append(f"malformed estimate {est}")
        if not within_identity_tolerance(gap.value, gap.std_error, ident.value, ident.std_error):
            problems.append(f"gap {gap.value} and identity {ident.value} disagree")
        if not 0.0 <= ae.value <= 1.0:
            problems.append(f"violation frequency {ae.value} outside [0, 1]")
        if not inacc.value >= 0.0:
            problems.append(f"negative inaccuracy {inacc.value}")
        return problems

    def final_checks(self, executions) -> list[str]:
        """The first operation again on one thread must be bit-identical."""
        op, k, result, error = executions[0]
        if error is not None:
            return []
        previous = os.environ.get("DEFLAB_THREADS")
        os.environ["DEFLAB_THREADS"] = "1"
        try:
            again = self.run(op, k)
        finally:
            os.environ["DEFLAB_THREADS"] = previous or "1"
        if again != result:
            return ["estimates differ between 1 and 2 threads for the same seed"]
        return []


# ---------------------------------------------------------------------------
# pipeline-small
# ---------------------------------------------------------------------------


class PipelineSmall:
    """One in-process ``cli.main`` call per operation on a small scenario."""

    name = "pipeline-small"
    threads = 1
    kernel = InterpreterKernel
    pool_rounds = 16
    round_s = 1.3
    SUBCOMMANDS = ("check", "counterexample", "score", "ae-trust", "identity")
    SAMPLES = {"counterexample": 20_000, "score": 50_000, "ae-trust": 50_000, "identity": 50_000}
    #: (family, n) per round: two violating-prone random scenarios for each
    #: trusting one, n = 2..5.
    MIX = tuple((family, n) for n in range(2, 6) for family in ("random", "random", "trusting"))

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.base_seed = seed
        self._holds: dict[str, bool] = {}
        self.rounds = []
        count = 0
        for _ in range(self.pool_rounds):
            ops = []
            for family, n in self.MIX:
                scenario = FAMILIES[family](rng, n)
                document = cli.scenario_to_document(
                    scenario, {"bet": Gamble(rng.normal(0.0, 1.0, n))}
                )
                path = workdir / f"scenario{count:04d}.json"
                count += 1
                path.write_text(json.dumps(document), encoding="utf-8")
                ops.extend((family, str(path), command) for command in self.SUBCOMMANDS)
            self.rounds.append(ops)

    def argv(self, op, k: int) -> list[str]:
        family, path, command = op
        if command == "check":
            return ["check", path, "--gamble", "bet"]
        return [
            command,
            path,
            "--samples",
            str(self.SAMPLES[command]),
            "--seed",
            str(op_seed(self.base_seed, k)),
        ]

    def run(self, op, k: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(op, k))
        return code, out.getvalue()

    def family(self, op) -> str:
        return op[0]

    def check(self, op, result) -> list[str]:
        family, path, command = op
        code, stdout = result
        expected = {0, 3} if command == "counterexample" else {0}
        if family == "trusting" and command == "counterexample":
            expected = {3}
        if code not in expected:
            return [f"{command} on {family} scenario exited {code}, expected {sorted(expected)}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"{command} stdout is not JSON: {exc}"]
        if report.get("command") != command:
            return [f"{command} report names command {report.get('command')!r}"]
        if command == "check":
            if family == "trusting" and report["global"]["holds"] is not True:
                return ["trusting scenario reported as violating"]
            self._holds[path] = report["global"]["holds"]
        elif command == "counterexample":
            if (code == 3) != report["verdict"]["holds"]:
                return ["counterexample exit code disagrees with its verdict"]
            if path in self._holds and self._holds[path] != report["verdict"]["holds"]:
                return ["counterexample and check disagree on the global verdict"]
            gap = report.get("gap")
            if code == 0 and not gap["value"] > 5.0 * gap["std_error"] > 0.0:
                return [f"counterexample gap {gap} is not five standard errors above zero"]
        elif command == "score":
            gap, ident = report["gap"], report["identity"]
            if not within_identity_tolerance(
                gap["value"], gap["std_error"], ident["value"], ident["std_error"]
            ):
                return [f"score gap {gap} and identity {ident} disagree"]
        elif command == "ae-trust":
            if not 0.0 <= report["violation_frequency"]["value"] <= 1.0:
                return ["violation frequency outside [0, 1]"]
        return []

    def final_checks(self, executions) -> list[str]:
        """One call per subcommand, repeated, must print the same bytes."""
        problems = []
        seen = set()
        for op, k, result, error in executions:
            if error is not None or op[2] in seen:
                continue
            seen.add(op[2])
            if self.run(op, k) != result:
                problems.append(f"{op[2]} output differs on an identical rerun")
        return problems


WORKLOADS = {w.name: w for w in (GlobalExact, McScores, PipelineSmall)}
