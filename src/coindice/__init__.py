"""Entropy-optimal dice rolling and discrete sampling from fair coins.

The core sampler keeps a recycled uniform state (x, m) so that rejected
randomness is reused instead of discarded; the surrounding modules build
the sampler's decision tree explicitly, verify its Knuth-Yao optimality
with exact rational arithmetic, and analyse its expected flip count in
closed form.

Importing the package loads no submodule: the first use of a public name
imports the module that defines it (PEP 562), so rolling a die never
loads the analysis, tree or goodness-of-fit code.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> its public names: those the README quickstart, CI's smoke
# step and the benchmark reach, and the errors public calls raise on bad input
_EXPORTS = {
    "analysis": ("entropy", "exact_expected_flips", "verify_bounds"),
    "bitsource": ("BitSource", "SeededSource"),
    "ddg": ("MassMismatch", "build_canonical", "build_from_discrete", "build_from_uniform",
            "check_optimal", "enumerate_uniform", "export_dot", "flip_distribution",
            "flip_distribution_uniform"),
    "discrete": ("InvalidDistribution", "ProbabilityVector", "parse_distribution", "roll",
                 "roll_many", "sample"),
    "gof": ("chi_square_test",),
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
