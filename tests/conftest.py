import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from deference_lab import Scenario, sampling


@pytest.fixture(autouse=True)
def empty_draw_memo() -> None:
    """Start every test without a retained Monte-Carlo draw."""
    sampling._memo = None


@pytest.fixture
def anti_expert() -> Scenario:
    """Each expert prevision is certain of the *other* world."""
    return Scenario.from_weights([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def truth_expert() -> Scenario:
    """Each expert prevision is certain of the actual world."""
    return Scenario.from_weights([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def agent_expert() -> Scenario:
    """Every expert prevision coincides with the agent's."""
    return Scenario.from_weights([0.3, 0.7], [[0.3, 0.7], [0.3, 0.7]])
