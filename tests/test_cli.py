"""The deference-lab command line: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deference_lab
from deference_lab import SearchExhaustedError
from deference_lab.cli import (
    EXIT_EXHAUSTED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_TRUST_HOLDS,
    InputError,
    load_scenario,
    main,
    scenario_digest,
    scenario_to_document,
)
from deference_lab.sampling import ScoreEstimate

ANTI = {
    "worlds": ["w1", "w2"],
    "agent": [0.5, 0.5],
    "expert": [[0.0, 1.0], [1.0, 0.0]],
    "gambles": {"bet": [1.0, -1.0], "flat": [2.0, 2.0]},
}
TRUTH = {
    "worlds": ["w1", "w2"],
    "agent": [0.5, 0.5],
    "expert": [[1.0, 0.0], [0.0, 1.0]],
}
MIRROR_AGENT = {
    "worlds": ["w1", "w2"],
    "agent": [0.3, 0.7],
    "expert": [[0.3, 0.7], [0.3, 0.7]],
}
POSITIVE_SIDE = {
    "worlds": ["w1", "w2"],
    "agent": [0.3, 0.7],
    "expert": [[0.1, 0.9], [0.4, 0.6]],
}
# Byte-exact ``counterexample --samples 20000 --seed 7`` report on POSITIVE_SIDE.
POSITIVE_SIDE_REPORT = """\
{
  "command": "counterexample",
  "scenario": "scenario.json",
  "digest": "sha256:4afd0b53958b16ead075bab52cdc7d687913973ae17428c1cf718b28bc74d41b",
  "sigma": 1.0,
  "samples": 20000,
  "seed": 7,
  "verdict": {
    "holds": false,
    "margin": 0.19999999999999987,
    "witness": [1.0, -0.3333333333333332],
    "witness_event": ["w2"],
    "witness_value": -0.3333333333333332
  },
  "box": {
    "orientation": "positive_side",
    "event": ["w1"],
    "value_margin": 1.0,
    "event_margin": 0.20000000000000009,
    "delta": 0.066666666666666763,
    "lower": [0.93333333333333324, -0.39999999999999997],
    "upper": [1.0, -0.3333333333333332]
  },
  "measure": {
    "kind": "mixture",
    "sigma": 1.0,
    "base_weight": 0.5,
    "bumps": [{
      "center": [0.96666666666666656, -0.36666666666666659],
      "scale": 0.011111111111111127,
      "weight": 0.5
    }]
  },
  "gap": {
    "value": 0.17429655387879411,
    "std_error": 0.0011338170266494666,
    "samples": 20000,
    "seed": 1201125462
  }
}
"""


@pytest.fixture
def scenario_file(tmp_path):
    def write(document, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    return write


def run_cli(capsys, *argv) -> tuple[int, dict | None]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestCheck:
    def test_anti_expert_reports_violation(self, capsys, scenario_file):
        code, report = run_cli(capsys, "check", scenario_file(ANTI))
        assert code == EXIT_OK
        assert report["global"]["holds"] is False
        assert report["global"]["witness_event"] == ["w2"]
        assert report["global"]["margin"] == pytest.approx(0.5, abs=1e-9)

    def test_truth_expert_holds(self, capsys, scenario_file):
        code, report = run_cli(capsys, "check", scenario_file(TRUTH))
        assert code == EXIT_OK
        assert report["global"]["holds"] is True

    def test_named_gamble_local_check(self, capsys, scenario_file):
        code, report = run_cli(capsys, "check", scenario_file(ANTI), "--gamble", "bet")
        assert code == EXIT_OK
        assert report["local"]["holds"] is False
        assert report["local"]["witness_event"] == ["w2"]
        assert report["local"]["witness_value"] == -1.0

    def test_missing_gamble_name(self, capsys, scenario_file):
        code = main(["check", scenario_file(ANTI), "--gamble", "nope"])
        assert code == EXIT_INPUT
        assert "nope" in capsys.readouterr().err

    def test_unnormalized_agent_row(self, capsys, scenario_file):
        bad = dict(ANTI, agent=[0.5, 0.4])
        code = main(["check", scenario_file(bad)])
        assert code == EXIT_INPUT
        assert "agent mass sums to 0.9" in capsys.readouterr().err

    def test_truncated_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"worlds": ["w1", "w2"], "agent": [0.5')
        code = main(["check", str(path)])
        assert code == EXIT_INPUT
        assert "line" in capsys.readouterr().err  # json diagnostics carry position

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/path.json"]) == EXIT_INPUT

    def test_expert_row_validation_names_the_row(self, capsys, scenario_file):
        bad = dict(TRUTH, expert=[[1.0, 0.0], [0.3, 0.3]])
        code = main(["check", scenario_file(bad)])
        assert code == EXIT_INPUT
        assert "expert row 2" in capsys.readouterr().err

    def test_booleans_are_not_numbers(self, capsys, scenario_file):
        bad = dict(TRUTH, agent=[True, False])
        code = main(["check", scenario_file(bad)])
        assert code == EXIT_INPUT
        assert "agent must be an array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("agent", dict(TRUTH, agent=[10**400, 0.5])),
            ("expert row 2", dict(TRUTH, expert=[[1.0, 0.0], [0.0, -(10**400)]])),
            ("gamble 'bet'", dict(TRUTH, gambles={"bet": [1.0, 10**400]})),
        ],
    )
    def test_integers_beyond_float_range(self, capsys, scenario_file, field, bad):
        code = main(["check", scenario_file(bad)])
        assert code == EXIT_INPUT
        assert f"{field} has a number beyond float range" in capsys.readouterr().err

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"worlds": ["\xff"]}')
        assert main(["check", str(path)]) == EXIT_INPUT
        assert "not valid JSON" in capsys.readouterr().err


# Integers reach far past float range, where converting them overflows.
_huge_integers = st.integers(min_value=-(10**400), max_value=10**400)
_json_values = st.recursive(
    st.none() | st.booleans() | _huge_integers | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=12,
)


def _fits_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


@st.composite
def _well_shaped_documents(draw):
    n = draw(st.integers(min_value=1, max_value=4))

    def mass():
        counts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        counts[0] += 1
        return [c / sum(counts) for c in counts]

    payoffs = _huge_integers | st.floats(allow_nan=False, allow_infinity=False)
    return {
        "worlds": [f"w{i + 1}" for i in range(n)],
        "agent": mass(),
        "expert": [mass() for _ in range(n)],
        "gambles": {"bet": draw(st.lists(payoffs, min_size=n, max_size=n))},
    }


@st.composite
def _perturbed_documents(draw):
    """A well-shaped document with one field, row or entry replaced, or a field dropped."""
    document = draw(_well_shaped_documents())
    field = draw(st.sampled_from(["worlds", "agent", "expert", "gambles", "extra"]))
    how = draw(st.sampled_from(["replace", "entry", "drop"]))
    value = draw(_huge_integers | _json_values)  # huge integers often, not just as leaves
    if how == "drop":
        document.pop(field, None)
    elif how == "replace" or field == "extra":
        document[field] = value
    else:
        entries = document["gambles"]["bet"] if field == "gambles" else document[field]
        j = draw(st.integers(0, len(entries) - 1))
        if field == "expert" and draw(st.booleans()):
            entries = entries[j]
        entries[j] = value
    return document


class TestLoadScenarioFuzz:
    """Any JSON document either loads or raises InputError, never anything else."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "scenario.json"

    @staticmethod
    def _loads(path, document) -> bool:
        path.write_text(json.dumps(document), encoding="utf-8")
        try:
            load_scenario(str(path))
        except InputError:
            return False
        return True

    @given(document=_well_shaped_documents())
    @settings(max_examples=100)
    def test_well_shaped_documents_load(self, path, document):
        expected = all(_fits_float(v) for v in document["gambles"]["bet"])
        assert self._loads(path, document) == expected

    @given(document=_perturbed_documents())
    @settings(max_examples=300)
    def test_perturbed_documents(self, path, document):
        self._loads(path, document)

    @given(document=_json_values)
    @settings(max_examples=200)
    def test_arbitrary_documents(self, path, document):
        self._loads(path, document)


class TestScore:
    def test_agent_as_expert_scores_exactly_zero(self, capsys, scenario_file):
        code, report = run_cli(
            capsys, "score", scenario_file(MIRROR_AGENT), "--samples", "5000"
        )
        assert code == EXIT_OK
        assert report["gap"]["value"] == 0.0
        assert report["gap"]["std_error"] == 0.0
        assert report["identity"]["value"] == 0.0

    def test_truth_expert_gap_negative(self, capsys, scenario_file):
        code, report = run_cli(
            capsys, "score", scenario_file(TRUTH), "--samples", "200000", "--seed", "3"
        )
        assert code == EXIT_OK
        gap = report["gap"]
        assert gap["value"] < -3 * gap["std_error"]

    def test_identity_subcommand(self, capsys, scenario_file):
        code, report = run_cli(
            capsys, "identity", scenario_file(ANTI), "--samples", "50000"
        )
        assert code == EXIT_OK
        assert report["identity"]["value"] > 0.0

    def test_rejects_bad_sigma(self, capsys, scenario_file):
        assert main(["score", scenario_file(ANTI), "--sigma", "0"]) == EXIT_INPUT
        assert main(["score", scenario_file(ANTI), "--samples", "0"]) == EXIT_INPUT

    @pytest.mark.parametrize("command", ["score", "identity", "ae-trust", "counterexample"])
    @pytest.mark.parametrize("sigma", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_sigma(self, capsys, scenario_file, command, sigma):
        assert main([command, scenario_file(ANTI), f"--sigma={sigma}"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --sigma: must be positive and finite" in captured.err


class TestAeTrust:
    def test_anti_expert_frequency(self, capsys, scenario_file):
        code, report = run_cli(
            capsys, "ae-trust", scenario_file(ANTI), "--samples", "100000"
        )
        assert code == EXIT_OK
        freq = report["violation_frequency"]
        assert freq["value"] == pytest.approx(0.5, abs=0.01)

    def test_truth_expert_frequency_zero(self, capsys, scenario_file):
        code, report = run_cli(
            capsys, "ae-trust", scenario_file(TRUTH), "--samples", "20000"
        )
        assert report["violation_frequency"]["value"] == 0.0


class TestCounterexample:
    def test_anti_expert_full_pipeline(self, capsys, scenario_file):
        code, report = run_cli(
            capsys, "counterexample", scenario_file(ANTI), "--samples", "50000"
        )
        assert code == EXIT_OK
        box = report["box"]
        assert box["orientation"] == "negative_side"
        assert box["event"] == ["w2"]
        assert box["delta"] > 0.0
        measure = report["measure"]
        assert measure["kind"] == "mixture"
        assert measure["bumps"][0]["weight"] == 0.5  # succeeds at the first rung
        assert measure["base_weight"] > 0.0
        gap = report["gap"]
        assert gap["value"] > 5 * gap["std_error"]

    def test_positive_side_pipeline_bytes(self, capsys, scenario_file, tmp_path, monkeypatch):
        # pi(witness) > 0 here, so the box is built on the positive side.
        scenario_file(POSITIVE_SIDE)
        monkeypatch.chdir(tmp_path)
        code = main(["counterexample", "scenario.json", "--samples", "20000", "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert '"orientation": "positive_side"' in out
        assert out == POSITIVE_SIDE_REPORT

    def test_trust_is_decided_once(self, capsys, scenario_file, monkeypatch):
        # The box certifies the violation, so the search need not re-decide it.
        from deference_lab import adversarial, cli, trust

        original = trust.check_global_trust
        calls = []

        def counting(scenario):
            calls.append(scenario.n)
            return original(scenario)

        for module in (trust, cli, adversarial):
            monkeypatch.setattr(module, "check_global_trust", counting, raising=False)
        code, _ = run_cli(
            capsys, "counterexample", scenario_file(POSITIVE_SIDE), "--samples", "2000"
        )
        assert code == EXIT_OK
        assert calls == [2]

    def test_trust_holding_scenario_exits_3(self, capsys, scenario_file):
        code, report = run_cli(capsys, "counterexample", scenario_file(TRUTH))
        assert code == EXIT_TRUST_HOLDS
        assert report["verdict"]["holds"] is True
        assert "box" not in report

    def test_search_exhaustion_exits_4(self, capsys, scenario_file, monkeypatch):
        best = ScoreEstimate(value=-0.01, std_error=0.002, samples=100, seed=0)

        def exhausted(*args, **kwargs):
            raise SearchExhaustedError("no luck", best_weight=0.875, best_estimate=best)

        monkeypatch.setattr("deference_lab.cli.build_adversarial_measure", exhausted)
        code, report = run_cli(
            capsys, "counterexample", scenario_file(ANTI), "--samples", "100"
        )
        assert code == EXIT_EXHAUSTED
        assert report["best_weight"] == 0.875
        assert report["gap"]["value"] == -0.01
        assert "no luck" in report["error"]


class TestReportContracts:
    def test_round_trip_scenario(self, scenario_file):
        scenario, gambles = load_scenario(scenario_file(ANTI))
        document = scenario_to_document(scenario, gambles)
        path2 = scenario_file(document, name="roundtrip.json")
        again, gambles2 = load_scenario(path2)
        assert again.space == scenario.space
        assert again.agent == scenario.agent
        assert again.expert == scenario.expert
        assert gambles2 == gambles

    def test_digest_depends_on_labels_and_numbers(self, scenario_file):
        a, _ = load_scenario(scenario_file(ANTI))
        t, _ = load_scenario(scenario_file(TRUTH))
        assert scenario_digest(a) != scenario_digest(t)
        relabeled = dict(ANTI, worlds=["north", "south"])
        r, _ = load_scenario(scenario_file(relabeled, name="relabel.json"))
        assert scenario_digest(r) != scenario_digest(a)
        assert scenario_digest(a) == scenario_digest(load_scenario(scenario_file(ANTI))[0])

    def test_text_format(self, capsys, scenario_file):
        code = main(["check", scenario_file(ANTI), "--format", "text"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "holds" in out and "w2" in out
        assert "wall_clock_s" in out

    def test_json_mode_keeps_timing_out_of_the_document(self, capsys, scenario_file):
        code = main(["check", scenario_file(ANTI)])
        captured = capsys.readouterr()
        assert "wall_clock_s" not in captured.out
        assert "wall_clock_s" in captured.err

    def test_seventeen_digit_floats_round_trip(self, capsys, scenario_file):
        code, report = run_cli(
            capsys, "score", scenario_file(ANTI), "--samples", "10000", "--seed", "1"
        )
        from deference_lab import MeasureSpec, expected_gap

        scenario, _ = load_scenario(scenario_file(ANTI))
        direct = expected_gap(scenario, MeasureSpec.gaussian(1.0), 10_000, 1)
        assert report["gap"]["value"] == direct.value  # parsed back bit-identically


class TestByteIdentity:
    def test_repeated_runs_identical(self, scenario_file):
        path = scenario_file(ANTI)
        args = [sys.executable, "-m", "deference_lab.cli"]
        # The child must import the package from where this process found it.
        package_root = str(Path(deference_lab.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""),
        )

        def run():
            return subprocess.run(
                args + ["score", path, "--samples", "20000", "--seed", "42"],
                capture_output=True,
                check=True,
                env=env,
            ).stdout

        first, second = run(), run()
        assert first == second

    def test_installed_entry_point(self, scenario_file):
        result = subprocess.run(
            ["deference-lab", "check", scenario_file(ANTI)], capture_output=True
        )
        assert result.returncode == EXIT_OK
        assert json.loads(result.stdout)["global"]["holds"] is False
