"""Entropy-optimal dice rolling and discrete sampling from fair coins.

The core sampler keeps a recycled uniform state (x, m) so that rejected
randomness is reused instead of discarded; the surrounding modules build
the sampler's decision tree explicitly, verify its Knuth-Yao optimality
with exact rational arithmetic, and analyse its expected flip count in
closed form.
"""

from .analysis import (
    BoundsReport,
    BoundViolation,
    FlipDistribution,
    ceil_log2,
    entropy,
    exact_expected_flips,
    flip_distribution_uniform,
    verify_bounds,
)
from .bitsource import Bit, BitSource, ReplaySource, SeededSource, SourceExhausted
from .ddg import (
    DdgTree,
    MassMismatch,
    OptimalityVerdict,
    build_canonical,
    build_from_discrete,
    build_from_uniform,
    census,
    check_optimal,
    export_dot,
    flip_distribution,
)
from .discrete import (
    InvalidDistribution,
    ProbabilityVector,
    acceptance_set,
    expansion_bit,
    parse_distribution,
    sample,
)
from .gof import ChiSquareResult, chi_square_test
from .oracle import EnumerationResult, enumerate_uniform
from .uniform import RecyclerState, TracedRoll, roll, roll_many

__version__ = "0.1.0"

__all__ = [
    "Bit",
    "BitSource",
    "BoundsReport",
    "BoundViolation",
    "ChiSquareResult",
    "DdgTree",
    "EnumerationResult",
    "FlipDistribution",
    "InvalidDistribution",
    "MassMismatch",
    "OptimalityVerdict",
    "ProbabilityVector",
    "RecyclerState",
    "ReplaySource",
    "SeededSource",
    "SourceExhausted",
    "TracedRoll",
    "acceptance_set",
    "build_canonical",
    "build_from_discrete",
    "build_from_uniform",
    "ceil_log2",
    "census",
    "check_optimal",
    "chi_square_test",
    "entropy",
    "enumerate_uniform",
    "exact_expected_flips",
    "expansion_bit",
    "export_dot",
    "flip_distribution",
    "flip_distribution_uniform",
    "parse_distribution",
    "roll",
    "roll_many",
    "sample",
    "verify_bounds",
]
