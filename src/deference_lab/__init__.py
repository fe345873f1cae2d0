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
    conditional_expectation,
    event_probability,
    expectation,
    indicator,
)
from .sampling import ScoreEstimate
from .trust import (
    Scenario,
    TrustVerdict,
    check_global_trust,
    check_local_trust,
    estimate_ae_trust,
    expert_event,
)
from .boxes import (
    DegenerateBoxError,
    NotAViolationWitness,
    Orientation,
    ViolationBox,
    build_positive_box,
    build_violation_box,
    event_margin,
    value_margin,
)
from .measures import BumpPair, MeasureSpec, SymmetryReport, measure_symmetry_check
from .accuracy import (
    ErrorKind,
    error_class,
    expected_gap,
    inaccuracy_mc,
    is_almost_desirable,
    rhs_identity,
)
from .adversarial import SearchExhaustedError, build_adversarial_measure, bump_pair_for_box

__version__ = "0.1.0"

__all__ = [
    "BumpPair",
    "DegenerateBoxError",
    "ErrorKind",
    "Event",
    "Gamble",
    "MeasureSpec",
    "NotAViolationWitness",
    "Orientation",
    "ProbMass",
    "Scenario",
    "ScoreEstimate",
    "SearchExhaustedError",
    "SymmetryReport",
    "TrustVerdict",
    "ValidationError",
    "ViolationBox",
    "WorldSpace",
    "build_adversarial_measure",
    "build_positive_box",
    "build_violation_box",
    "bump_pair_for_box",
    "check_global_trust",
    "check_local_trust",
    "conditional_expectation",
    "error_class",
    "estimate_ae_trust",
    "event_margin",
    "event_probability",
    "expectation",
    "expected_gap",
    "expert_event",
    "inaccuracy_mc",
    "indicator",
    "is_almost_desirable",
    "measure_symmetry_check",
    "rhs_identity",
    "value_margin",
]
