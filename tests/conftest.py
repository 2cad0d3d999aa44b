import random
from collections import Counter
from fractions import Fraction

import pytest

from coindice import ProbabilityVector
from coindice.ddg import DdgTree, _expand, _tally, _verdict, census
from reference import RecyclerState


def random_dyadic_distribution(
    rng: random.Random, max_outcomes: int = 6, denom_power: int = 10
) -> ProbabilityVector:
    """Random distribution with denominator 2^denom_power and all
    outcomes strictly positive."""
    denom = 1 << denom_power
    k = rng.randint(2, max_outcomes)
    cuts = sorted(rng.sample(range(1, denom), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return ProbabilityVector([Fraction(part, denom) for part in parts])


def flip_tail(fd, i: int) -> Fraction:
    """P(N > i) of a FlipDistribution."""
    return 1 - sum((q for j, q in fd.mass.items() if j <= i), Fraction(0))


def max_level(fd) -> int:
    """The deepest level at which a FlipDistribution has mass."""
    return max(fd.mass, default=0)


def uniform_probs(n: int) -> ProbabilityVector:
    """The target 1/n x n, whose optimal sampler is the n-sided die."""
    return ProbabilityVector([Fraction(1, n)] * n)


def dyadic_suite() -> list[ProbabilityVector]:
    """Fifty fixed random distributions over denominator 2^10."""
    rng = random.Random(20240501)
    return [random_dyadic_distribution(rng, max_outcomes=6, denom_power=10) for _ in range(50)]


# runs past the 2^63 - 1 outcomes that len() of a range can report: the
# die 2^64 + 1, and a record of two runs of 2^70 outcomes at 2^-71 each,
# whose one nonempty level is 71
HUGE_DIE = (1 << 64) + 1
TWIN_HUGE_RUNS = (1, 1), (1 << 71, 1 << 71), ((1, 1 << 70), ((1 << 70) + 1, 1 << 70))


class Unwalkable:
    """``range`` for a module under test, patched in as its global: it
    builds, measures and indexes ranges as ``range`` does, but refuses to
    walk one of more than ``LONGEST`` items, so a layer that walks a run
    outcome by outcome fails at once instead of hanging (``range`` cannot
    be subclassed)."""

    LONGEST = 64

    def __init__(self, *args):
        self.items = range(*args)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        if len(self.items) > self.LONGEST:
            raise AssertionError("walked every outcome of a run")
        return iter(self.items)


def walk(record, depth: int):
    """The trie walk of a target's compiled record to ``depth``: each bit
    history's post-resolution RecyclerState (a terminating history keeps
    its final state), and the exact tallies of the walk.  The walk's
    stream is kept whole, as a list of its levels."""
    expanded = list(_expand(record, depth))
    states = {
        h: RecyclerState(x, m if outcome is None else k)
        for k, m, nodes in expanded
        for h, x, outcome in nodes
    }
    return states, _tally(expanded, depth)


def check_record(tree, record):
    """``check_optimal`` against a compiled ``record`` (see ``discrete``), which can hold
    targets no ``ProbabilityVector`` can list, such as the die 2^64 + 1."""
    return _verdict(census(tree), not tree.frontier(), tree.depth_bound, record)


def shallowest_leaf(tree) -> tuple[str, int]:
    """(history, outcome) of the first leaf in breadth-first order."""
    return min(tree.leaves(), key=lambda leaf: (len(leaf[0]), leaf[0]))


def split_shallowest_leaf(tree) -> DdgTree:
    """``tree`` with its shallowest leaf replaced by two leaves of the same
    outcome one level deeper: every leaf mass is unchanged, but that
    outcome appears twice at one level, which no optimal tree allows."""
    history, outcome = shallowest_leaf(tree)
    nodes = {**tree.nodes, history: None, history + "0": outcome, history + "1": outcome}
    return DdgTree(nodes, tree.depth_bound)


def tree_levels(tree: DdgTree):
    """A tree as ``ddg._expand``'s stream: one (k, m, nodes) per level,
    nodes (history, x, outcome) in (length, history) order, where x counts
    the level's leaves 1..k and its internal nodes 1..m in that order."""
    ordered = sorted(tree.nodes, key=lambda h: (len(h), h))
    for level in range(len(ordered[-1]) + 1):
        nodes, k, m = [], 0, 0
        for history in (h for h in ordered if len(h) == level):
            outcome = tree.nodes[history]
            if outcome is None:
                m = x = m + 1
            else:
                k = x = k + 1
            nodes.append((history, x, outcome))
        yield k, m, nodes


def level_multisets(states) -> dict[int, Counter]:
    """Group a state-tree mapping by bit-history length."""
    grouped: dict[int, Counter] = {}
    for history, state in states.items():
        grouped.setdefault(len(history), Counter())[tuple(state)] += 1
    return grouped


@pytest.fixture
def rng():
    return random.Random(0xC01D1CE)
