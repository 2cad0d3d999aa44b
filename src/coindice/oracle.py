"""Exhaustive ground truth for both samplers.

Walks every bit string up to a depth bound as a shared-prefix trie, so
the cost is proportional to the number of live states per level (at most
2n - 1 for the die roller) times the depth, not 2^depth.  One walk serves
both samplers: it steps the recycled pair (x, m) through the one level
rule, the residual doubling of ``discrete._levels``, over the target's
compiled record (a vector's ``_runs``, or the die's from
``discrete._die``), which yields each level's accepted spans.  All masses
are exact rationals: a path that terminates after j bits carries 2^-j.
"""

from dataclasses import dataclass
from fractions import Fraction

from .discrete import _die, _levels


@dataclass
class EnumerationResult:
    """Exact tallies from walking all bit strings up to a depth bound."""

    outcome_mass: dict[int, Fraction]
    flip_mass: dict[int, Fraction]
    live_mass: Fraction
    leaf_histories: dict[str, int]

    def terminated_mass(self) -> Fraction:
        return sum(self.outcome_mass.values(), Fraction(0))


def _expand(record, depth: int):
    """Trie walk of the sampler of a compiled ``record`` (see
    ``discrete``).  Returns (states, leaves, live) where states maps
    every reached bit history to its post-resolution (x, m) pair, leaves
    maps terminating histories to outcomes, and live lists the histories
    still running at ``depth``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    states: dict[str, tuple[int, int]] = {"": (1, 1)}
    levels = _levels(record)
    k, accepted = next(levels)
    if k:  # level 0 accepts only an outcome of probability 1
        return states, {"": accepted[0][0]}, []

    leaves: dict[str, int] = {}
    # every state still running at a level has the same m
    frontier: list[tuple[str, int]] = [("", 1)]
    m = 1
    for _, (k, accepted) in zip(range(depth), levels):
        if not frontier:
            break
        # one list per level: indexing it per leaf beats walking the spans
        accept = []
        for first, length in accepted:
            accept += range(first, first + length)
        branches = (("0", 0), ("1", m))
        m = 2 * m - k
        next_frontier: list[tuple[str, int]] = []
        for history, x in frontier:
            for suffix, dx in branches:
                h2 = history + suffix
                x2 = x + dx
                if x2 <= k:
                    states[h2] = (x2, k)
                    leaves[h2] = accept[x2 - 1]
                    continue
                x2 -= k
                states[h2] = (x2, m)
                next_frontier.append((h2, x2))
        frontier = next_frontier
    return states, leaves, [h for h, _ in frontier]


def _tally(walk, depth: int) -> EnumerationResult:
    # a leaf at level j carries 2^(depth - j) / 2^depth
    _, leaves, live = walk
    outcome_weight: dict[int, int] = {}
    level_leaves: dict[int, int] = {}
    for history, outcome in leaves.items():
        j = len(history)
        outcome_weight[outcome] = outcome_weight.get(outcome, 0) + (1 << (depth - j))
        level_leaves[j] = level_leaves.get(j, 0) + 1
    outcome_mass = {o: Fraction(w, 1 << depth) for o, w in outcome_weight.items()}
    flip_mass = {j: Fraction(count, 1 << j) for j, count in level_leaves.items()}
    live_mass = Fraction(len(live), 1 << depth)
    return EnumerationResult(outcome_mass, flip_mass, live_mass, leaves)


def enumerate_uniform(n: int, depth: int) -> EnumerationResult:
    """Exact outcome and flip-count masses for the n-sided die roller."""
    return _tally(_expand(_die(n), depth), depth)
