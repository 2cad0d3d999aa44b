"""Reference routes: each works out what a library function computes by a
second, independent route, without calling the function it checks."""

from fractions import Fraction
from typing import NamedTuple

from coindice import BitSource, ProbabilityVector
from coindice.ddg import (
    DdgTree,
    MassMismatch,
    OptimalityVerdict,
    census,
    expansion_bit,
)
from coindice.discrete import TracedRoll


class RecyclerState(NamedTuple):
    """State pair of a draw: x is uniform on {1..m} given m."""

    x: int
    m: int


def history_bits(history: str) -> list[int]:
    """The bits of a bit history, first flip first."""
    return [int(b) for b in history]


class SourceExhausted(Exception):
    """A scripted source ran out of bits.

    A replay that ends before its draw resolves raises it, which tells a
    bit history still live at its end from one that terminated.
    """


class ReplaySource(BitSource):
    """Plays back a fixed bit sequence, then raises SourceExhausted."""

    def __init__(self, bits) -> None:
        self._bits = list(bits)
        for b in self._bits:
            if not isinstance(b, int) or b not in (0, 1):
                raise ValueError(f"bit sequence may only contain 0 and 1, got {b!r}")
        self._cursor = 0

    def next_bit(self) -> int:
        cursor = self._cursor
        if cursor >= len(self._bits):  # not counted: the cursor stays
            raise SourceExhausted(f"replay of {len(self._bits)} bits exhausted")
        self._cursor = cursor + 1
        return self._bits[cursor]

    _draw = next_bit
    flips_consumed = property(lambda self: self._cursor)


def acceptance_set(p: ProbabilityVector, level: int) -> tuple[int, ...]:
    """Outcomes whose expansion has a 1 bit at ``level``, ascending: the
    random-access reference for the level rule and the canonical tree."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    return tuple(
        i for i, q in enumerate(p.probs, start=1) if expansion_bit(q, level) == 1
    )


def live_mass(tree: DdgTree) -> Fraction:
    """Probability mass of a tree's frontier: the runs still going."""
    frontier = tree.frontier()
    depth = max(map(len, frontier), default=0)
    return Fraction(sum(1 << (depth - len(h)) for h in frontier), 1 << depth)


def entry_record(p: ProbabilityVector):
    """The one-run-per-entry record, the reference for merged blocks."""
    return (
        tuple(q.numerator for q in p.probs),
        tuple(q.denominator for q in p.probs),
        tuple((i, 1) for i in range(1, len(p) + 1)),
    )


def reference_levels(record):
    """The level rule as a list of acceptance sets, one per level 0, 1,
    2, ..., from the runs of a compiled record, copying every accepted
    outcome: the reference for the run walk."""
    nums, dens, spans = record
    residuals = list(nums)
    indices = range(len(dens))
    while True:
        accept = []
        for i in indices:
            r = residuals[i]
            if r >= dens[i]:
                first, length = spans[i]
                accept += range(first, first + length)
                r -= dens[i]
            residuals[i] = 2 * r
        yield accept


def reference_sample(
    p: ProbabilityVector, source: BitSource
) -> tuple[TracedRoll, list[RecyclerState]]:
    """``sample`` over ``reference_levels``, indexing each level's list,
    and its trace: every (x, m) the draw passes through, the pair after
    each doubling and after an accept/recycle resolution when one fired."""
    levels = reference_levels(p._runs)
    states = [RecyclerState(1, 1)]
    certain = next(levels)
    if certain:
        return TracedRoll(certain[0], 0), states

    x, m = 1, 1
    for level, accept in enumerate(levels, start=1):
        k = len(accept)
        bit = source.next_bit()
        x += bit * m
        m *= 2
        states.append(RecyclerState(x, m))
        if k:
            if x <= k:
                if states[-1] != (x, k):
                    states.append(RecyclerState(x, k))
                return TracedRoll(accept[x - 1], level), states
            x -= k
            m -= k
            states.append(RecyclerState(x, m))


def reference_roll(n: int, source: BitSource) -> tuple[TracedRoll, list[RecyclerState]]:
    """The roller as it was before it tested each flip once: after every
    doubling it checks m >= n and resolves there.  Kept as the reference,
    with its trace as ``reference_sample`` keeps it."""
    next_bit = source.next_bit
    x, m = 1, 1
    flips = 0
    states = [RecyclerState(1, 1)]
    while m < n:
        x += next_bit() * m
        flips += 1
        m *= 2
        states.append(RecyclerState(x, m))
        if m >= n:
            if x <= n:
                m = n
            else:
                x -= n
                m -= n
            if states[-1] != (x, m):
                states.append(RecyclerState(x, m))
    return TracedRoll(x, flips), states


def replay_tree(run, depth_bound):
    """Reference builder: classify every bit history up to the depth bound
    by replaying the sampler on exactly those bits.  A run that terminates
    on the last bit is a leaf, one that runs dry is internal.  It costs
    O(nodes x depth)."""
    nodes = {}
    frontier = [""]
    for depth in range(depth_bound + 1):
        next_frontier = []
        for history in frontier:
            try:
                result = run(ReplaySource(history_bits(history)))
            except SourceExhausted:
                nodes[history] = None
                if depth < depth_bound:
                    next_frontier += [history + "0", history + "1"]
                continue
            assert result.flips == len(history)
            nodes[history] = result.outcome
        frontier = next_frontier
    return DdgTree(nodes, depth_bound)


class Tally(NamedTuple):
    """The exact tallies of a walk, named as ``ddg.EnumerationResult`` reads them."""

    outcome_mass: dict[int, Fraction]
    flip_mass: dict[int, Fraction]
    live_mass: Fraction
    leaf_histories: dict[str, int]


def replay_tally(tree: DdgTree) -> Tally:
    """The exact tallies of a tree's leaves and frontier, one leaf at a time."""
    leaves = dict(tree.leaves())
    outcome_mass: dict[int, Fraction] = {}
    flip_mass: dict[int, Fraction] = {}
    for history, outcome in leaves.items():
        mass = Fraction(1, 1 << len(history))
        outcome_mass[outcome] = outcome_mass.get(outcome, Fraction(0)) + mass
        flip_mass[len(history)] = flip_mass.get(len(history), Fraction(0)) + mass
    return Tally(outcome_mass, flip_mass, live_mass(tree), leaves)


def dense_check_optimal(tree, record):
    """Reference for ``check_optimal``'s verdict: visits every outcome of every
    run of ``record``, and every level for each, so it costs
    O(outcomes x depth)."""
    nums, dens, spans = record
    runs = [
        (num, den, range(first, first + length))
        for num, den, (first, length) in zip(nums, dens, spans)
    ]
    counts = census(tree)
    outcomes = runs[-1][2][-1]
    # leaf mass of outcome i is weight[i] / 2^depth
    depth = max((level for level, _ in counts), default=0)
    weight = [0] * (outcomes + 1)
    for (level, outcome), count in counts.items():
        if not 1 <= outcome <= outcomes:
            raise MassMismatch(f"leaf outcome {outcome} outside 1..{outcomes}")
        weight[outcome] += count << (depth - level)
    complete = not tree.frontier()
    probs = [Fraction(num, den) for num, den, _ in runs]
    for (num, den, run), q in zip(runs, probs):
        target = num << depth
        for i in run:
            scaled = weight[i] * den
            if complete and scaled != target:
                raise MassMismatch(
                    f"outcome {i} has leaf mass {Fraction(weight[i], 1 << depth)}, "
                    f"distribution says {q}"
                )
            if scaled > target:
                raise MassMismatch(
                    f"outcome {i} has leaf mass {Fraction(weight[i], 1 << depth)} exceeding {q}"
                )

    violations = []
    for (level, outcome), count in sorted(counts.items()):
        if count > 1:
            violations.append(f"outcome {outcome} appears {count} times at level {level}")
    for level in range(tree.depth_bound + 1):
        for (_, _, run), q in zip(runs, probs):
            want = expansion_bit(q, level)
            for i in run:
                got = counts.get((level, i), 0)
                if got != want and got <= 1:
                    violations.append(
                        f"outcome {i} has {got} leaves at level {level}, expansion bit is {want}"
                    )
    return OptimalityVerdict(violations)
