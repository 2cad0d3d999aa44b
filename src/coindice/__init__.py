"""Entropy-optimal dice rolling and discrete sampling from fair coins.

The core sampler keeps a recycled uniform state (x, m) so that rejected
randomness is reused instead of discarded; the surrounding modules build
the sampler's decision tree explicitly, verify its Knuth-Yao optimality
with exact rational arithmetic, and analyse its expected flip count in
closed form.

Importing the package loads no submodule: the first use of a public name
imports the module that defines it (PEP 562), so rolling a die never
loads the analysis, tree, oracle or goodness-of-fit code.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "analysis": ("BoundsReport", "BoundViolation", "FlipDistribution", "ceil_log2", "entropy",
                 "exact_expected_flips", "flip_distribution_uniform", "verify_bounds"),
    "bitsource": ("Bit", "BitSource", "ReplaySource", "SeededSource", "SourceExhausted"),
    "ddg": ("DdgTree", "MassMismatch", "OptimalityVerdict", "build_canonical",
            "build_from_discrete", "build_from_uniform", "census", "check_optimal",
            "expansion_bit", "export_dot", "flip_distribution"),
    "discrete": ("InvalidDistribution", "ProbabilityVector", "parse_distribution", "sample"),
    "gof": ("ChiSquareResult", "chi_square_test"),
    "oracle": ("EnumerationResult", "enumerate_uniform"),
    "uniform": ("RecyclerState", "TracedRoll", "roll", "roll_many"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """Import a public name's module on first use and keep the name in
    the package globals, so later lookups never reach this function."""
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
