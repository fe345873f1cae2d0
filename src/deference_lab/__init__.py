"""Total Trust decisions and their accuracy characterisation, numerically.

The package decides whether an agent's prevision totally trusts an expert
on a finite possibility space, fattens any violation into an open box of
counterexample gambles, and verifies -- by Monte Carlo against exact and
quadrature oracles -- that trust holds precisely when the agent expects
the expert to score at least as well under every admissible global
inaccuracy measure.
"""

from .core import (
    Event,
    Gamble,
    ProbMass,
    ValidationError,
    WorldSpace,
    expectation,
)
from .sampling import ScoreEstimate
from .trust import (
    Scenario,
    TrustVerdict,
    check_global_trust,
    check_local_trust,
    estimate_ae_trust,
)
from .boxes import (
    Orientation,
    ViolationBox,
    build_positive_box,
    build_violation_box,
)
from .measures import BumpPair, MeasureSpec
from .accuracy import expected_gap, inaccuracy_mc, rhs_identity
from .adversarial import SearchExhaustedError, build_adversarial_measure

__version__ = "0.1.0"

__all__ = [
    "BumpPair",
    "Event",
    "Gamble",
    "MeasureSpec",
    "Orientation",
    "ProbMass",
    "Scenario",
    "ScoreEstimate",
    "SearchExhaustedError",
    "TrustVerdict",
    "ValidationError",
    "ViolationBox",
    "WorldSpace",
    "build_adversarial_measure",
    "build_positive_box",
    "build_violation_box",
    "check_global_trust",
    "check_local_trust",
    "estimate_ae_trust",
    "expectation",
    "expected_gap",
    "inaccuracy_mc",
    "rhs_identity",
]
