"""Command-line front end: scenario files in, deterministic reports out.

Scenario files are JSON documents::

    {
      "worlds": ["w1", "w2"],
      "agent": [0.5, 0.5],
      "expert": [[0.0, 1.0], [1.0, 0.0]],
      "gambles": {"bet": [1.0, -1.0]}
    }

``worlds`` labels the space, ``agent`` is the agent's mass function,
``expert`` row i is the expert's mass function if world i is the case, and
the optional ``gambles`` map names payoff vectors for local checks.

Subcommands: ``check`` (exact trust verdict, optionally for one named
gamble), ``score`` (expected gap plus its identity form), ``identity``
(identity form alone), ``ae-trust`` (sampled violation frequency under the
standard Gaussian), and
``counterexample`` (witness, violation box, and an adversarial measure
with a statistically positive gap, estimated at ``--seed``).

Exit codes: 0 evaluated, 2 input error, 3 counterexample requested but
trust holds, 4 the adversarial measure's gap did not clear five standard
errors.

Reports render as JSON (machine) or aligned text (human).  JSON output is
byte-identical across reruns with the same inputs and seed: numbers carry
17 significant digits and wall-clock timing goes to stderr, never into the
JSON document.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from argparse import Namespace

import numpy as np

from .accuracy import expected_gap, rhs_identity
from .adversarial import SearchExhaustedError, build_adversarial_measure
from .boxes import ViolationBox, build_violation_box
from .core import Event, Gamble, ProbMass, ValidationError, WorldSpace
from .measures import MeasureSpec
from .sampling import _at_least, thread_count
from .trust import (
    Scenario,
    TrustVerdict,
    check_global_trust,
    check_local_trust,
    estimate_ae_trust,
)

__all__ = ["main", "load_scenario", "scenario_digest", "scenario_to_document"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRUST_HOLDS = 3
EXIT_EXHAUSTED = 4


# ---------------------------------------------------------------------------
# Scenario ingestion
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def load_scenario(path: str) -> tuple[Scenario, dict[str, Gamble]]:
    """Parse and validate a scenario file, with field-level diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc

    _require(isinstance(raw, dict), "scenario document must be a JSON object")
    for key in ("worlds", "agent", "expert"):
        _require(key in raw, f"scenario is missing the {key!r} field")
    unknown = set(raw) - {"worlds", "agent", "expert", "gambles"}
    _require(not unknown, f"unknown scenario fields: {sorted(unknown)}")

    worlds = raw["worlds"]
    _require(
        isinstance(worlds, list) and worlds and all(isinstance(w, str) for w in worlds),
        "worlds must be a nonempty array of label strings",
    )
    try:
        space = WorldSpace(tuple(worlds))
    except ValidationError as exc:
        raise ValidationError(f"worlds: {exc}") from exc
    n = space.n

    def parse_vector(values: object, field: str) -> np.ndarray:
        _require(
            isinstance(values, list)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values),
            f"{field} must be an array of numbers",
        )
        _require(
            len(values) == n, f"{field} has {len(values)} entries, expected {n}"
        )
        try:
            return np.asarray(values, dtype=float)
        except OverflowError as exc:
            raise ValidationError(f"{field} has a number beyond float range") from exc

    def parse_mass(values: object, field: str) -> ProbMass:
        vec = parse_vector(values, field)
        try:
            return ProbMass(vec)
        except ValidationError as exc:
            raise ValidationError(f"{field} {exc}") from exc

    agent = parse_mass(raw["agent"], "agent")
    expert_raw = raw["expert"]
    _require(
        isinstance(expert_raw, list) and len(expert_raw) == n,
        f"expert must be an array of {n} rows (one prevision per world)",
    )
    expert = tuple(parse_mass(row, f"expert row {i + 1}") for i, row in enumerate(expert_raw))
    scenario = Scenario(space=space, agent=agent, expert=expert)

    gambles: dict[str, Gamble] = {}
    if "gambles" in raw:
        _require(isinstance(raw["gambles"], dict), "gambles must be an object of named vectors")
        for name, values in raw["gambles"].items():
            vec = parse_vector(values, f"gamble {name!r}")
            try:
                gambles[name] = Gamble(vec)
            except ValidationError as exc:
                raise ValidationError(f"gamble {name!r}: {exc}") from exc
    return scenario, gambles


def scenario_to_document(scenario: Scenario, gambles: dict[str, Gamble] | None = None) -> dict:
    """The JSON-ready document a scenario (re)serializes to."""
    document = {
        "worlds": list(scenario.space.labels),
        "agent": scenario.agent.weights.tolist(),
        "expert": [p.weights.tolist() for p in scenario.expert],
    }
    if gambles:
        document["gambles"] = {name: g.values.tolist() for name, g in gambles.items()}
    return document


def scenario_digest(scenario: Scenario) -> str:
    """Content hash of the scenario as loaded (labels included)."""
    canonical = json.dumps(
        {
            "worlds": list(scenario.space.labels),
            "agent": [_format_float(w) for w in scenario.agent.weights],
            "expert": [[_format_float(w) for w in p.weights] for p in scenario.expert],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    # 17 digits round-trip every float; ".17g" spells nan and +-inf itself,
    # and an integral value gets ".0" so that it reads back as a float.
    text = format(float(x), ".17g")
    return text + ".0" if text.lstrip("-").isdigit() else text


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_to_json(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v, indent) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = _format_float(float(value))
        return json.dumps(text) if text in ("nan", "inf", "-inf") else text
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _to_text(value: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    width = max((len(str(k)) for k in value), default=0)
    for key, item in value.items():
        if isinstance(item, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_to_text(item, indent + 1))
        else:
            lines.append(f"{pad}{str(key):<{width}}  {_scalar_text(item)}")
    return lines


def _scalar_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_scalar_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    return str(value)


def _emit(report: dict, fmt: str, elapsed: float) -> None:
    if fmt == "json":
        sys.stdout.write(_to_json(report) + "\n")
        sys.stderr.write(f"wall_clock_s: {elapsed:.3f}\n")
    else:
        lines = _to_text(report)
        lines.append(f"wall_clock_s  {elapsed:.3f}")
        sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Report fragments
# ---------------------------------------------------------------------------


def _event_labels(space: WorldSpace, event: Event | None) -> list[str] | None:
    if event is None:
        return None
    return [space.labels[i] for i in event.sorted_members()]


def _verdict_fragment(scenario: Scenario, verdict: TrustVerdict) -> dict:
    return {
        "holds": verdict.holds,
        "margin": verdict.margin,
        "witness": None if verdict.witness is None else verdict.witness.values.tolist(),
        "witness_event": _event_labels(scenario.space, verdict.witness_event),
        "witness_value": verdict.witness_value,
    }


def _box_fragment(scenario: Scenario, box: ViolationBox) -> dict:
    return {
        "orientation": box.orientation.value,
        "event": _event_labels(scenario.space, box.event),
        "value_margin": box.value_margin,
        "event_margin": box.event_margin,
        "delta": box.delta,
        "lower": box.lower.tolist(),
        "upper": box.upper.tolist(),
    }


def _measure_fragment(measure: MeasureSpec) -> dict:
    return {
        "kind": "mixture" if measure.bumps else "gaussian",
        "sigma": measure.sigma,
        "base_weight": measure.base_weight,
        "bumps": [
            {"center": b.center.values.tolist(), "scale": b.scale, "weight": b.weight}
            for b in measure.bumps
        ],
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: Namespace, scenario: Scenario, gambles: dict, report: dict) -> int:
    report["global"] = _verdict_fragment(scenario, check_global_trust(scenario))
    if args.gamble is not None:
        if args.gamble not in gambles:
            raise ValidationError(
                f"gamble {args.gamble!r} not present in {args.scenario} "
                f"(available: {sorted(gambles)})"
            )
        verdict = check_local_trust(scenario, gambles[args.gamble])
        fragment = _verdict_fragment(scenario, verdict)
        fragment["gamble"] = args.gamble
        report["local"] = fragment
    return EXIT_OK


def _cmd_estimates(args: Namespace, scenario: Scenario, gambles: dict, report: dict) -> int:
    """``score`` and ``identity``: one report entry per (key, estimator)."""
    # Built per call, so a name patched on this module is the one called.
    estimators = {
        "score": (("gap", expected_gap), ("identity", rhs_identity)),
        "identity": (("identity", rhs_identity),),
    }[args.command]
    measure = MeasureSpec.gaussian(args.sigma)
    for key, estimator in estimators:
        estimate = estimator(scenario, measure, args.samples, args.seed)
        report[key] = dataclasses.asdict(estimate)
    return EXIT_OK


def _cmd_ae_trust(args: Namespace, scenario: Scenario, gambles: dict, report: dict) -> int:
    # The violation set is a cone, so its Gaussian measure is the same at
    # every scale: ae-trust takes no --sigma and always draws at 1.0.
    estimate = estimate_ae_trust(scenario, 1.0, args.samples, args.seed)
    report["violation_frequency"] = dataclasses.asdict(estimate)
    return EXIT_OK


def _cmd_counterexample(args: Namespace, scenario: Scenario, gambles: dict, report: dict) -> int:
    verdict = check_global_trust(scenario)
    report["verdict"] = _verdict_fragment(scenario, verdict)
    if verdict.holds:
        return EXIT_TRUST_HOLDS

    # The witness has pi(X 1_A) < 0 whatever the sign of pi(X), so the box
    # above it violates uniformly; a box below X can have no width.
    box = build_violation_box(scenario, verdict.witness)
    report["box"] = _box_fragment(scenario, box)

    try:
        measure, estimate = build_adversarial_measure(
            scenario, box, base_sigma=args.sigma, samples=args.samples, seed=args.seed
        )
    except SearchExhaustedError as exc:
        report["error"] = str(exc)
        report["best_weight"] = exc.best_weight
        report["gap"] = dataclasses.asdict(exc.best_estimate)
        return EXIT_EXHAUSTED
    report["measure"] = _measure_fragment(measure)
    report["gap"] = dataclasses.asdict(estimate)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept for the process."""
    parser = argparse.ArgumentParser(
        prog="deference-lab",
        description="Decide Total Trust exactly and verify its accuracy characterisation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, *, gamble=False, sigma=False, sampled=False):
        cmd = sub.add_parser(name)
        cmd.add_argument("scenario", help="path to a scenario JSON file")
        if gamble:
            cmd.add_argument("--gamble", default=None, help="named gamble for a local check")
        if sigma:
            cmd.add_argument("--sigma", type=float, default=1.0)
        if sampled:
            cmd.add_argument("--samples", type=int, default=100_000)
            cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        cmd.set_defaults(handler=handler)

    add("check", _cmd_check, gamble=True)
    add("score", _cmd_estimates, sigma=True, sampled=True)
    add("identity", _cmd_estimates, sigma=True, sampled=True)
    add("ae-trust", _cmd_ae_trust, sampled=True)
    add("counterexample", _cmd_counterexample, sigma=True, sampled=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0

    started = time.perf_counter()
    try:
        if hasattr(args, "samples"):
            # A sampled subcommand's inputs, by the library's own rules and
            # before the scenario is read: whatever its verdict, a bad one exits 2.
            _at_least("samples", args.samples, 1)
            _at_least("seed", args.seed, 0)
            thread_count()
            if hasattr(args, "sigma"):
                MeasureSpec.gaussian(args.sigma)
        scenario, gambles = load_scenario(args.scenario)
        report = {"command": args.command, "scenario": args.scenario}
        report["digest"] = scenario_digest(scenario)
        for key in ("gamble", "sigma", "samples", "seed"):
            if getattr(args, key, None) is not None:
                report[key] = getattr(args, key)
        # Each handler adds its own section to this header and returns its exit code.
        code = args.handler(args, scenario, gambles, report)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    _emit(report, args.format, time.perf_counter() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
