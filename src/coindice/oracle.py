"""Exhaustive ground truth for both samplers.

Walks every bit string up to a depth bound as a shared-prefix trie, so
the cost is proportional to the number of live states per level (at most
2n - 1 for the die roller) times the depth, not 2^depth.  One walk serves
both samplers: it steps the recycled pair (x, m) through the one level
rule, the residual doubling of ``discrete._levels``, over the target's
compiled record (a vector's ``_runs``, or the die's from
``discrete._die``), which yields each level's accepted spans.  It keeps
one node list per level, of k leaves (x = 1..k) and m live histories
(x = 1..m), and stops with ValueError before its histories pass
``WALK_BUDGET`` characters in all.  All masses are exact rationals: a
path that terminates after j bits carries 2^-j.
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


# the summed length of all bit histories a walk may hold; the largest walk
# it admits, ``tree --die 9406 --check``, took 1.5 s and 225 MB (2-vCPU Xeon)
WALK_BUDGET = 1 << 23


def _expand(record, depth: int):
    """Trie walk of the sampler of a compiled ``record`` (see
    ``discrete``) to ``depth``, or until no history runs.  Returns one
    (k, m, nodes) per level, where nodes lists (history, x, outcome) in
    breadth-first order: a history that terminates there has state (x, k)
    and its outcome, one still running has state (x, m) and outcome None.
    Raises ValueError before the summed length of all histories would
    pass ``WALK_BUDGET`` characters.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    levels = _levels(record)
    k, accepted = next(levels)  # level 0 accepts only an outcome of probability 1
    # every history still running at a level has the same m
    m, size = 1 - k, 0
    walk = [(k, m, [("", 1, accepted[0][0] if k else None)])]
    for j, (k, accepted) in zip(range(1, depth + 1), levels):
        if not m:
            break
        size += 2 * j * m
        if size > WALK_BUDGET:
            raise ValueError(
                f"trie walk to depth {depth} passes the walk budget of {WALK_BUDGET} "
                f"history characters at level {j}"
            )
        # one list per level: indexing it per leaf beats walking the spans
        accept = []
        for first, length in accepted:
            accept += range(first, first + length)
        nodes = []
        append = nodes.append
        for history, x, outcome in walk[-1][2]:
            if outcome is None:
                h0, h1, x1 = history + "0", history + "1", x + m
                append((h0, x, accept[x - 1]) if x <= k else (h0, x - k, None))
                append((h1, x1, accept[x1 - 1]) if x1 <= k else (h1, x1 - k, None))
        m = 2 * m - k
        walk.append((k, m, nodes))
    return walk


def _tally(walk, depth: int) -> EnumerationResult:
    # level j holds k leaves and m live histories; a leaf there carries
    # 2^(depth - j) / 2^depth
    outcome_weight: dict[int, int] = {}
    leaves: dict[str, int] = {}
    for j, (_, _, nodes) in enumerate(walk):
        weight = 1 << (depth - j)
        for history, _, outcome in nodes:
            if outcome is not None:
                leaves[history] = outcome
                outcome_weight[outcome] = outcome_weight.get(outcome, 0) + weight
    masses = {w: Fraction(w, 1 << depth) for w in set(outcome_weight.values())}
    outcome_mass = {o: masses[w] for o, w in outcome_weight.items()}
    flip_mass = {j: Fraction(k, 1 << j) for j, (k, _, _) in enumerate(walk) if k}
    live_mass = Fraction(walk[-1][1], 1 << depth)
    return EnumerationResult(outcome_mass, flip_mass, live_mass, leaves)


def enumerate_uniform(n: int, depth: int) -> EnumerationResult:
    """Exact outcome and flip-count masses for the n-sided die roller."""
    return _tally(_expand(_die(n), depth), depth)
