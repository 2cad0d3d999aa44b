"""Exhaustive ground truth for both samplers.

Walks every bit string up to a depth bound as a shared-prefix trie, so
the cost is proportional to the number of live states per level (at most
2n - 1 for the die roller) times the depth, not 2^depth.  All masses are
exact rationals: a path that terminates after j bits carries 2^-j.
"""

from dataclasses import dataclass
from fractions import Fraction

from .discrete import ProbabilityVector, acceptance_set
from .uniform import RecyclerState, _check_sides


@dataclass
class EnumerationResult:
    """Exact tallies from walking all bit strings up to a depth bound."""

    outcome_mass: dict[int, Fraction]
    flip_mass: dict[int, Fraction]
    live_mass: Fraction
    leaf_histories: dict[str, int]

    def terminated_mass(self) -> Fraction:
        return sum(self.outcome_mass.values(), Fraction(0))


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")


def _expand_uniform(n: int, depth: int):
    """Trie walk of the die roller.

    Returns (states, leaves, live) where states maps every reached bit
    history to its post-resolution (x, m) pair, leaves maps terminating
    histories to outcomes, and live lists the histories still running at
    ``depth``.
    """
    states: dict[str, tuple[int, int]] = {"": (1, 1)}
    leaves: dict[str, int] = {}
    if n == 1:
        leaves[""] = 1
        return states, leaves, []

    frontier: list[tuple[str, int, int]] = [("", 1, 1)]
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: list[tuple[str, int, int]] = []
        for history, x, m in frontier:
            for bit in (0, 1):
                h2 = history + ("1" if bit else "0")
                x2 = x + bit * m
                m2 = 2 * m
                if m2 >= n:
                    if x2 <= n:
                        states[h2] = (x2, n)
                        leaves[h2] = x2
                        continue
                    x2 -= n
                    m2 -= n
                states[h2] = (x2, m2)
                next_frontier.append((h2, x2, m2))
        frontier = next_frontier
    return states, leaves, [h for h, _, _ in frontier]


def _expand_discrete(p: ProbabilityVector, depth: int):
    states: dict[str, tuple[int, int]] = {"": (1, 1)}
    leaves: dict[str, int] = {}
    certain = p.certain_outcome()
    if certain is not None:
        leaves[""] = certain
        return states, leaves, []

    frontier: list[tuple[str, int, int]] = [("", 1, 1)]
    for level in range(1, depth + 1):
        if not frontier:
            break
        accept = acceptance_set(p, level)
        k = len(accept)
        next_frontier: list[tuple[str, int, int]] = []
        for history, x, m in frontier:
            for bit in (0, 1):
                h2 = history + ("1" if bit else "0")
                x2 = x + bit * m
                m2 = 2 * m
                if k and m2 >= k:
                    if x2 <= k:
                        states[h2] = (x2, k)
                        leaves[h2] = accept[x2 - 1]
                        continue
                    x2 -= k
                    m2 -= k
                states[h2] = (x2, m2)
                next_frontier.append((h2, x2, m2))
        frontier = next_frontier
    return states, leaves, [h for h, _, _ in frontier]


def _tally(leaves: dict[str, int], live: list[str], depth: int) -> EnumerationResult:
    # a leaf at level j carries 2^(depth - j) / 2^depth
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
    _check_sides(n)
    _check_depth(depth)
    _, leaves, live = _expand_uniform(n, depth)
    return _tally(leaves, live, depth)


def enumerate_discrete(p: ProbabilityVector, depth: int) -> EnumerationResult:
    """Exact outcome and flip-count masses for the discrete sampler."""
    _check_depth(depth)
    _, leaves, live = _expand_discrete(p, depth)
    return _tally(leaves, live, depth)


def state_tree_uniform(n: int, depth: int) -> dict[str, RecyclerState]:
    """Post-resolution state after each bit history, for the die roller.

    Terminating histories appear with their final state (m == n) and are
    not extended further.
    """
    _check_sides(n)
    _check_depth(depth)
    states, _, _ = _expand_uniform(n, depth)
    return {h: RecyclerState(*s) for h, s in states.items()}


def state_tree_discrete(p: ProbabilityVector, depth: int) -> dict[str, RecyclerState]:
    _check_depth(depth)
    states, _, _ = _expand_discrete(p, depth)
    return {h: RecyclerState(*s) for h, s in states.items()}
