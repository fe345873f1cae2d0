"""The deference-lab command line: reports, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deference_lab
from deference_lab import Gamble, SearchExhaustedError, ValidationError, cli
from deference_lab.cli import (
    EXIT_EXHAUSTED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_TRUST_HOLDS,
    load_scenario,
    main,
    scenario_digest,
    scenario_to_document,
)
from deference_lab.measures import MIN_BASE_WEIGHT
from deference_lab.sampling import ScoreEstimate
from oracles import exact_witness_violates, random_scenario

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
SCALE_N3 = {
    "worlds": ["w1", "w2", "w3"],
    "agent": [0.2, 0.5, 0.3],
    "expert": [[0.6, 0.3, 0.1], [0.1, 0.7, 0.2], [0.25, 0.25, 0.5]],
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
    "orientation": "negative_side",
    "event": ["w2"],
    "value_margin": 0.3333333333333332,
    "event_margin": 0.19999999999999987,
    "delta": 0.19999999999999987,
    "lower": [1.0, -0.3333333333333332],
    "upper": [1.2, -0.13333333333333333]
  },
  "measure": {
    "kind": "mixture",
    "sigma": 1.0,
    "base_weight": 9.5367431640625e-07,
    "bumps": [{
      "center": [1.1000000000000001, -0.23333333333333328],
      "scale": 0.033333333333333312,
      "weight": 0.99999904632568359
    }]
  },
  "gap": {
    "value": 0.32981405766793076,
    "std_error": 8.6179500758649258e-05,
    "samples": 20000,
    "seed": 7
  }
}
"""
# The same report as ``--format text``, less its closing ``wall_clock_s`` line.
POSITIVE_SIDE_TEXT = """\
command   counterexample
scenario  scenario.json
digest    sha256:4afd0b53958b16ead075bab52cdc7d687913973ae17428c1cf718b28bc74d41b
sigma     1.0
samples   20000
seed      7
verdict:
  holds          false
  margin         0.19999999999999987
  witness        [1.0, -0.3333333333333332]
  witness_event  [w2]
  witness_value  -0.3333333333333332
box:
  orientation   negative_side
  event         [w2]
  value_margin  0.3333333333333332
  event_margin  0.19999999999999987
  delta         0.19999999999999987
  lower         [1.0, -0.3333333333333332]
  upper         [1.2, -0.13333333333333333]
measure:
  kind         mixture
  sigma        1.0
  base_weight  9.5367431640625e-07
  bumps        [{center: [1.1000000000000001, -0.23333333333333328], scale: 0.033333333333333312, weight: 0.99999904632568359}]
gap:
  value      0.32981405766793076
  std_error  8.6179500758649258e-05
  samples    20000
  seed       7
"""
# Byte-exact ``score --samples 131195 --seed 7`` report on POSITIVE_SIDE: two
# full Monte-Carlo chunks and a partial one, gap and identity on one draw.
POSITIVE_SIDE_SCORE = """\
{
  "command": "score",
  "scenario": "scenario.json",
  "digest": "sha256:4afd0b53958b16ead075bab52cdc7d687913973ae17428c1cf718b28bc74d41b",
  "sigma": 1.0,
  "samples": 131195,
  "seed": 7,
  "gap": {
    "value": 0.057681628503024954,
    "std_error": 0.00043686893614958692,
    "samples": 131195,
    "seed": 7
  },
  "identity": {
    "value": 0.057681628503024954,
    "std_error": 0.00043686893614958692,
    "samples": 131195,
    "seed": 7
  }
}
"""

# ``identity`` and ``ae-trust`` with the same arguments: byte-exact too.
POSITIVE_SIDE_IDENTITY = """\
{
  "command": "identity",
  "scenario": "scenario.json",
  "digest": "sha256:4afd0b53958b16ead075bab52cdc7d687913973ae17428c1cf718b28bc74d41b",
  "sigma": 1.0,
  "samples": 131195,
  "seed": 7,
  "identity": {
    "value": 0.057681628503024954,
    "std_error": 0.00043686893614958692,
    "samples": 131195,
    "seed": 7
  }
}
"""
POSITIVE_SIDE_AE_TRUST = """\
{
  "command": "ae-trust",
  "scenario": "scenario.json",
  "digest": "sha256:4afd0b53958b16ead075bab52cdc7d687913973ae17428c1cf718b28bc74d41b",
  "samples": 131195,
  "seed": 7,
  "violation_frequency": {
    "value": 0.15046305118335301,
    "std_error": 0.00098706880419140424,
    "samples": 131195,
    "seed": 7
  }
}
"""
# Every world accepts the witness, so no excluded world bounds the lift:
# the box's event margin is infinite and prints as the string "inf".
EVERY_WORLD_ACCEPTS = {
    "worlds": ["w1", "w2", "w3"],
    "agent": [0.98, 0.01, 0.01],
    "expert": [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
}
# Three exactly distinct expert rows whose smallest singular value over the
# largest (1.4e-17) sits below the rank cut, so the global check takes the
# dependent-rows chain, and the last world has no agent mass.
NEAR_IDENTICAL = {
    "worlds": ["w1", "w2", "w3"],
    "agent": [0.44504759185120857, 0.5549524081487914, 0.0],
    "expert": [
        [0.21756877088571572, 0.5245181403994925, 0.25791308871479185],
        [0.21756877088565268, 0.5245181403993406, 0.25791308871471713],
        [0.21756877088576587, 0.5245181403996134, 0.2579130887148513],
    ],
}
# Six nearly identical expert rows (one Dirichlet row times 1 + u per row,
# |u| <= 1e-13).  In exact arithmetic "bet" violates trust at threshold
# v = -2.8227450124939333 on {w1..w4}, with conditional -3.40 there.
KNIFE_EDGE = {
    "worlds": ["w1", "w2", "w3", "w4", "w5", "w6"],
    "agent": [
        0.024857907799358547, 0.054666442347554446, 0.4566855511949094,
        0.162345072767601, 0.00552949813097449, 0.2959155277596023,
    ],
    "expert": [
        [0.08599626430702581, 0.5164228712329794, 0.14741254386724384,
         0.1708511201452636, 0.07592684202639226, 0.003390358421095069],
        [0.08599626430702582, 0.5164228712329794, 0.14741254386724387,
         0.1708511201452636, 0.07592684202639227, 0.0033903584210950694],
        [0.08599626430702581, 0.5164228712329794, 0.14741254386724384,
         0.1708511201452636, 0.07592684202639226, 0.003390358421095069],
        [0.08599626430702582, 0.5164228712329795, 0.14741254386724384,
         0.1708511201452636, 0.07592684202639227, 0.0033903584210950694],
        [0.08599626430702582, 0.5164228712329795, 0.1474125438672439,
         0.17085112014526363, 0.07592684202639229, 0.0033903584210950694],
        [0.08599626430702584, 0.5164228712329795, 0.14741254386724387,
         0.17085112014526366, 0.07592684202639229, 0.00339035842109507],
    ],
    "gambles": {
        "bet": [
            0.7755258925335157, -3.776525384529862, -4.553046250369472,
            -0.6811170792980475, -2.013144867598627, 0.3669873453316451,
        ],
    },
}
# Byte-exact ``counterexample --samples 20000 --seed 7`` report on EVERY_WORLD_ACCEPTS.
EVERY_WORLD_ACCEPTS_REPORT = """\
{
  "command": "counterexample",
  "scenario": "scenario.json",
  "digest": "sha256:9ae556ca8790f951e33c9ab62f54c1d15176f3581870dd5a7507572a823a27bd",
  "sigma": 1.0,
  "samples": 20000,
  "seed": 7,
  "verdict": {
    "holds": false,
    "margin": 0.96078431372549011,
    "witness": [-1.0, 0.96078431372548989, 0.96078431372548989],
    "witness_event": ["w1", "w2", "w3"],
    "witness_value": -0.96078431372549011
  },
  "box": {
    "orientation": "negative_side",
    "event": ["w1", "w2", "w3"],
    "value_margin": 0.96078431372549011,
    "event_margin": "inf",
    "delta": 0.96078431372549011,
    "lower": [-1.0, 0.96078431372548989, 0.96078431372548989],
    "upper": [-0.039215686274509887, 1.92156862745098, 1.92156862745098]
  },
  "measure": {
    "kind": "mixture",
    "sigma": 1.0,
    "base_weight": 9.5367431640625e-07,
    "bumps": [{
      "center": [-0.51960784313725494, 1.4411764705882351, 1.4411764705882351],
      "scale": 0.16013071895424835,
      "weight": 0.99999904632568359
    }]
  },
  "gap": {
    "value": 0.47926874616608584,
    "std_error": 0.0011062524395994795,
    "samples": 20000,
    "seed": 7
  }
}
"""
# The same report as ``--format text``, less its closing ``wall_clock_s`` line.
EVERY_WORLD_ACCEPTS_TEXT = """\
command   counterexample
scenario  scenario.json
digest    sha256:9ae556ca8790f951e33c9ab62f54c1d15176f3581870dd5a7507572a823a27bd
sigma     1.0
samples   20000
seed      7
verdict:
  holds          false
  margin         0.96078431372549011
  witness        [-1.0, 0.96078431372548989, 0.96078431372548989]
  witness_event  [w1, w2, w3]
  witness_value  -0.96078431372549011
box:
  orientation   negative_side
  event         [w1, w2, w3]
  value_margin  0.96078431372549011
  event_margin  inf
  delta         0.96078431372549011
  lower         [-1.0, 0.96078431372548989, 0.96078431372548989]
  upper         [-0.039215686274509887, 1.92156862745098, 1.92156862745098]
measure:
  kind         mixture
  sigma        1.0
  base_weight  9.5367431640625e-07
  bumps        [{center: [-0.51960784313725494, 1.4411764705882351, 1.4411764705882351], scale: 0.16013071895424835, weight: 0.99999904632568359}]
gap:
  value      0.47926874616608584
  std_error  0.0011062524395994795
  samples    20000
  seed       7
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


def assert_verified_or_one_error(capsys, path: str, argv: list[str], section: str) -> None:
    """Exit 0 with a witness that violates trust exactly, or exit 2 with one line."""
    code = main(argv)
    captured = capsys.readouterr()
    if code == EXIT_INPUT:
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
    else:
        assert code == EXIT_OK
        witness = Gamble(json.loads(captured.out)[section]["witness"])
        assert exact_witness_violates(load_scenario(path)[0], witness)


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

    def test_small_class_residual_fails_cleanly(self, capsys, scenario_file):
        # The agent leaves the row space of the two distinct rows by about
        # 1e-9: well above the slack, far below the +-1 expert previsions.
        tilted = {
            "worlds": ["w1", "w2", "w3"],
            "agent": [0.300000001, 0.199999999, 0.5],
            "expert": [[0.36, 0.24, 0.4], [0.36, 0.24, 0.4], [0.15, 0.1, 0.75]],
        }
        code, report = run_cli(capsys, "check", scenario_file(tilted))
        assert code == EXIT_OK
        assert report["global"]["holds"] is False

    def test_near_identical_rows_end_without_a_traceback(self, capsys, scenario_file):
        path = scenario_file(NEAR_IDENTICAL)
        assert_verified_or_one_error(capsys, path, ["check", path], "global")

    def test_knife_edge_local_violation_is_never_reported_as_holding(
        self, capsys, scenario_file
    ):
        path = scenario_file(KNIFE_EDGE)
        assert_verified_or_one_error(capsys, path, ["check", path, "--gamble", "bet"], "local")

    def test_named_gamble_local_check(self, capsys, scenario_file):
        code, report = run_cli(capsys, "check", scenario_file(ANTI), "--gamble", "bet")
        assert code == EXIT_OK
        assert report["local"]["holds"] is False
        assert report["local"]["witness_event"] == ["w2"]
        assert report["local"]["witness_value"] == -1.0

    def test_witness_shift_past_float_range_is_one_error(self, capsys, scenario_file):
        # The sweep fails at threshold 1e308 and shifts the gamble by -5e307,
        # which carries -1.7e308 past the largest float.
        huge = {
            "worlds": ["w1", "w2", "w3"],
            "agent": [0.25, 0.25, 0.5],
            "expert": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
            "gambles": {"bet": [1e308, 1.0, -1.7e308]},
        }
        code = main(["check", scenario_file(huge), "--gamble", "bet"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: shifted gamble left float range")
        assert captured.err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                dict(TRUTH, worlds=["w1", "w1"]),
                "worlds: world labels must be unique, got ('w1', 'w1')",
            ),
            (
                dict(TRUTH, gambles={"bet": [math.nan, 1.0]}),
                "gamble 'bet': gamble has non-finite entries: [nan, 1.0]",
            ),
        ],
    )
    def test_field_errors_name_the_field(self, capsys, scenario_file, bad, message):
        assert main(["check", scenario_file(bad)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
    """Any JSON document either loads or raises ValidationError, never anything else."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "scenario.json"

    @staticmethod
    def _loads(path, document) -> bool:
        path.write_text(json.dumps(document), encoding="utf-8")
        try:
            load_scenario(str(path))
        except ValidationError:
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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_score_bytes(self, threads, capsys, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario_file(POSITIVE_SIDE)
        monkeypatch.chdir(tmp_path)
        code = main(["score", "scenario.json", "--samples", "131195", "--seed", "7"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == POSITIVE_SIDE_SCORE

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "command, golden",
        [("identity", POSITIVE_SIDE_IDENTITY), ("ae-trust", POSITIVE_SIDE_AE_TRUST)],
    )
    def test_sampled_report_bytes(
        self, command, golden, threads, capsys, scenario_file, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("DEFLAB_THREADS", threads)
        scenario_file(POSITIVE_SIDE)
        monkeypatch.chdir(tmp_path)
        code = main([command, "scenario.json", "--samples", "131195", "--seed", "7"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("document", [ANTI, TRUTH, MIRROR_AGENT, POSITIVE_SIDE, SCALE_N3])
    @pytest.mark.parametrize("sigma, factor", [("2", 2.0), ("0.5", 0.5)])
    def test_sigma_scales_the_report_exactly(self, capsys, scenario_file, document, sigma, factor):
        # Both integrands are positively homogeneous of degree one, and a
        # power-of-two scale multiplies every draw without rounding.
        path = scenario_file(document)
        argv = ["score", path, "--samples", "10000", "--seed", "3"]
        _, unit = run_cli(capsys, *argv)
        _, scaled = run_cli(capsys, *argv, "--sigma", sigma)
        assert scaled["sigma"] == factor
        for key in ("gap", "identity"):
            assert scaled[key]["value"] == factor * unit[key]["value"]
            assert scaled[key]["std_error"] == factor * unit[key]["std_error"]

    def test_rejects_bad_sigma(self, capsys, scenario_file):
        assert main(["score", scenario_file(ANTI), "--sigma", "0"]) == EXIT_INPUT
        assert main(["score", scenario_file(ANTI), "--samples", "0"]) == EXIT_INPUT

    def test_overflowing_scatter_prints_inf(self, capsys, scenario_file):
        # Every draw and gap is finite at this scale; only their squares overflow.
        code, report = run_cli(capsys, "score", scenario_file(ANTI), "--sigma", "1e300")
        assert code == EXIT_OK
        for key in ("gap", "identity"):
            assert 0.0 < report[key]["value"] < math.inf
            assert report[key]["std_error"] == "inf"

    @staticmethod
    def _score_without_warnings(capsys, path: str, sigma: str) -> str:
        """``score --sigma`` with warnings as errors: asserts exit 2, returns stderr."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["score", path, "--sigma", sigma])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return captured.err

    def test_nan_estimate_exits_2_with_one_line(self, capsys, scenario_file):
        # Every draw is finite at this scale, but the integrands meet inf - inf.
        err = self._score_without_warnings(capsys, scenario_file(ANTI), "1e307")
        assert err.startswith("error: Monte-Carlo estimate is nan")

    def test_overflowing_draws_exit_2_with_one_line(self, capsys, scenario_file):
        # 16 sigma overflows, so a draw could leave float range: rejected first.
        err = self._score_without_warnings(capsys, scenario_file(ANTI), "1e308")
        assert err.startswith("error: sigma must be positive and finite, and so must its draws")

    @pytest.mark.parametrize("command", ["score", "identity", "counterexample"])
    @pytest.mark.parametrize("sigma", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_sigma(self, capsys, scenario_file, command, sigma):
        assert main([command, scenario_file(ANTI), f"--sigma={sigma}"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sigma must be positive and finite, and so must its draws, got {sigma}\n"
        )

    @pytest.mark.parametrize("command", ["score", "identity", "ae-trust", "counterexample"])
    def test_rejects_negative_seed(self, capsys, scenario_file, command):
        # A negative seed would reach SeedSequence and die with a traceback.
        assert main([command, scenario_file(ANTI), "--seed", "-1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"

    def test_unparseable_samples_name_the_type(self, capsys, scenario_file):
        assert main(["score", scenario_file(ANTI), "--samples", "1e5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --samples: invalid int value: '1e5'" in captured.err

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--samples", "0"], "samples must be an integer >= 1, got 0"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            (["--sigma", "0"], "sigma must be positive and finite, and so must its draws, got 0.0"),
        ],
        ids=["samples", "seed", "sigma"],
    )
    def test_options_are_checked_before_the_scenario_is_read(
        self, capsys, tmp_path, option, message
    ):
        missing = str(tmp_path / "missing.json")
        assert main(["score", missing, *option]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


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

    def test_report_names_no_sigma(self, capsys, scenario_file):
        code, report = run_cli(capsys, "ae-trust", scenario_file(ANTI), "--samples", "2000")
        assert code == EXIT_OK
        assert list(report) == [
            "command", "scenario", "digest", "samples", "seed", "violation_frequency"
        ]

    def test_takes_no_sigma(self, capsys, scenario_file):
        # The violation set is a cone: no scale could change the frequency.
        assert main(["ae-trust", scenario_file(ANTI), "--sigma", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --sigma 1" in captured.err


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
        assert measure["bumps"][0]["weight"] == 1.0 - MIN_BASE_WEIGHT
        assert measure["base_weight"] == MIN_BASE_WEIGHT
        gap = report["gap"]
        assert gap["value"] > 5 * gap["std_error"]

    def test_near_identical_rows_end_without_a_traceback(self, capsys, scenario_file):
        path = scenario_file(NEAR_IDENTICAL)
        argv = ["counterexample", path, "--samples", "20000"]
        assert_verified_or_one_error(capsys, path, argv, "verdict")

    def test_positive_side_pipeline_bytes(self, capsys, scenario_file, tmp_path, monkeypatch):
        # pi(witness) > 0 here, and the box is still fattened upward.
        scenario_file(POSITIVE_SIDE)
        monkeypatch.chdir(tmp_path)
        code = main(["counterexample", "scenario.json", "--samples", "20000", "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert '"orientation": "negative_side"' in out
        assert out == POSITIVE_SIDE_REPORT
        report = json.loads(out)
        assert report["measure"]["bumps"][0]["weight"] == 1.0 - MIN_BASE_WEIGHT
        gap = report["gap"]
        assert gap["value"] > 5 * gap["std_error"]
        assert gap["seed"] == report["seed"] == 7

    def test_positive_side_text_bytes(self, capsys, scenario_file, tmp_path, monkeypatch):
        scenario_file(POSITIVE_SIDE)
        monkeypatch.chdir(tmp_path)
        argv = ["counterexample", "scenario.json", "--samples", "20000", "--seed", "7"]
        assert main(argv + ["--format", "text"]) == EXIT_OK
        *lines, timing = capsys.readouterr().out.splitlines()
        assert timing.startswith("wall_clock_s  ")
        assert "\n".join(lines) + "\n" == POSITIVE_SIDE_TEXT

    @pytest.mark.parametrize(
        "fmt, golden", [("json", EVERY_WORLD_ACCEPTS_REPORT), ("text", EVERY_WORLD_ACCEPTS_TEXT)]
    )
    def test_infinite_event_margin_bytes(
        self, fmt, golden, capsys, scenario_file, tmp_path, monkeypatch
    ):
        scenario_file(EVERY_WORLD_ACCEPTS)
        monkeypatch.chdir(tmp_path)
        argv = ["counterexample", "scenario.json", "--samples", "20000", "--seed", "7"]
        assert main(argv + ["--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "text":
            *lines, timing = out.splitlines()
            assert timing.startswith("wall_clock_s  ")
            out = "\n".join(lines) + "\n"
        assert out == golden

    def test_witness_on_an_accepting_hyperplane_gets_a_box(self, capsys, scenario_file):
        # pi(X) > 0 and P_1(X) = 0.0 for an accepting expert: the command
        # fattens X upward, and that box has width.
        document = {
            "worlds": ["w1", "w2", "w3", "w4"],
            "agent": [2 / 3, 0.0, 0.0, 1 / 3],
            "expert": [[2 / 3, 0, 0, 1 / 3], [0, 1, 0, 0], [0.2, 0.2, 0.2, 0.4], [0, 0, 1 / 3, 2 / 3]],
        }
        code, report = run_cli(
            capsys, "counterexample", scenario_file(document), "--samples", "20000"
        )
        assert code == EXIT_OK
        assert report["verdict"]["witness"][1] == 0.0
        box = report["box"]
        assert box["orientation"] == "negative_side" and box["delta"] > 0.0
        gap = report["gap"]
        assert gap["value"] > 5 * gap["std_error"] > 0.0

    def test_witness_rounding_below_zero_prevision_gets_a_box(self, capsys, scenario_file):
        # pi(X) rounds to -5.6e-17 here, and the box is still
        # min(lambda, xi) wide.
        document = {
            "worlds": ["w1", "w2", "w3"],
            "agent": [0.0, 0.5, 0.5],
            "expert": [[0.0, 0.0, 1.0], [0.0, 0.25, 0.75], [0.5, 0.25, 0.25]],
        }
        argv = ["counterexample", scenario_file(document), "--samples", "20000", "--seed", "7"]
        code, report = run_cli(capsys, *argv)
        assert code == EXIT_OK
        box = report["box"]
        assert box["delta"] == 0.49999999999999956
        assert box["event"] == ["w1", "w2"]
        gap = report["gap"]
        assert gap["value"] > 5 * gap["std_error"] > 0.0

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

    def test_overflowing_sigma_exits_2_when_trust_holds(self, capsys, scenario_file):
        # The options are checked before the verdict, which would exit 3.
        assert main(["counterexample", scenario_file(TRUTH), "--sigma", "1e308"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sigma must be positive and finite, and so must its draws, got 1e+308\n"
        )

    def test_one_sample_has_no_standard_error(self, capsys, scenario_file):
        # One draw cannot clear five standard errors: its scatter is unknown.
        path = scenario_file(ANTI)
        code, report = run_cli(capsys, "counterexample", path, "--samples", "1", "--seed", "0")
        assert code == EXIT_EXHAUSTED
        assert report["gap"]["std_error"] == "inf" and math.isfinite(report["gap"]["value"])
        code, report = run_cli(capsys, "score", path, "--samples", "1")
        assert code == EXIT_OK
        assert report["gap"]["std_error"] == report["identity"]["std_error"] == "inf"
        code, report = run_cli(capsys, "score", path, "--samples", "2")
        assert code == EXIT_OK
        assert 0.0 <= report["gap"]["std_error"] < math.inf

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
        # Non-dyadic weights: the file decides the very scenario that wrote it.
        rng = np.random.default_rng(23)
        for n in range(2, 9):
            for _ in range(10):
                scenario = random_scenario(rng, n)
                path = scenario_file(scenario_to_document(scenario), name="dirichlet.json")
                again, _ = load_scenario(path)
                assert np.array_equal(again._stack, scenario._stack), n
                assert scenario_digest(again) == scenario_digest(scenario), n

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

    @pytest.mark.parametrize(
        "value, text",
        [
            (math.nan, "nan"),
            (-math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (1e16, "10000000000000000.0"),
            (1e22, "1e+22"),
            (5e-324, "4.9406564584124654e-324"),
        ],
    )
    def test_format_float(self, value, text):
        assert cli._format_float(value) == text
        assert cli._format_float(np.float64(value)) == text

    def test_seventeen_digit_floats_round_trip(self, capsys, scenario_file, monkeypatch):
        code, report = run_cli(
            capsys, "score", scenario_file(ANTI), "--samples", "10000", "--seed", "1"
        )
        from deference_lab import MeasureSpec, expected_gap, sampling

        monkeypatch.setattr(sampling, "_memo", None)  # a fresh draw, not the memo

        scenario, _ = load_scenario(scenario_file(ANTI))
        direct = expected_gap(scenario, MeasureSpec.gaussian(1.0), 10_000, 1)
        assert report["gap"]["value"] == direct.value  # parsed back bit-identically


def _child_env() -> dict[str, str]:
    """This environment, with the package importable from where it was found."""
    package_root = str(Path(deference_lab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""),
    )


class TestByteIdentity:
    def test_repeated_runs_identical(self, scenario_file):
        path = scenario_file(ANTI)
        args = [sys.executable, "-m", "deference_lab.cli"]
        env = _child_env()

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


class TestParserCache:
    @pytest.fixture
    def parsers_built(self, monkeypatch) -> list[str]:
        """Progs of the top-level parsers built from here on, cache emptied."""
        built: list[str] = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            if parser.prog == "deference-lab":
                built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        return built

    def test_many_calls_build_one_parser(self, capsys, scenario_file, parsers_built):
        path = scenario_file(POSITIVE_SIDE)
        sampled = ["--samples", "2000"]
        for _ in range(3):
            assert main(["check", path, "--gamble", "nope"]) == EXIT_INPUT
            assert main(["check", path]) == EXIT_OK
            for command in ("score", "identity", "ae-trust", "counterexample"):
                assert main([command, path, *sampled]) == EXIT_OK
            assert main(["score", path, "--samples", "0"]) == EXIT_INPUT
        assert parsers_built == ["deference-lab"]

    def test_errors_and_help_leave_no_trace(self, capsys, scenario_file, tmp_path, monkeypatch):
        scenario_file(ANTI)
        monkeypatch.chdir(tmp_path)
        argv = ["score", "scenario.json", "--samples", "3000", "--seed", "5"]
        fresh = subprocess.run(
            [sys.executable, "-m", "deference_lab.cli", *argv],
            capture_output=True,
            check=True,
            env=_child_env(),
        ).stdout.decode()

        helps = []
        for _ in range(2):
            assert main(["score", "scenario.json", "--bogus"]) == EXIT_INPUT
            assert main(["counterexample"]) == EXIT_INPUT
            assert main(["--help"]) == EXIT_OK
            helps.append(capsys.readouterr().out)
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == fresh
        assert helps[0] == helps[1] and "counterexample" in helps[0]

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(parser, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(parser, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import deference_lab.cli as cli\n"
            "print(len(built), cli._build_parser.cache_info().currsize)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, check=True, env=_child_env()
        )
        assert result.stdout.decode().split() == ["0", "0"]


class TestThreadSetting:
    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "", "1.5"])
    def test_malformed_value_exits_2_with_one_line(self, raw, capsys, scenario_file, monkeypatch):
        monkeypatch.setenv("DEFLAB_THREADS", raw)
        # On TRUTH the verdict alone would exit 3; the setting is checked first.
        for command, document in (("score", ANTI), ("counterexample", TRUTH)):
            assert main([command, scenario_file(document), "--samples", "100"]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: DEFLAB_THREADS must be a positive integer, got {raw!r}\n"
            )
