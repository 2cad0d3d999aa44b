"""Explicit discrete-distribution-generating trees.

A DDG tree is walked by coin flips (0 = left, 1 = right) until a leaf
emits an outcome; a leaf at level j carries probability 2^-j.  Nodes are
keyed by their bit history rather than linked by pointers, which makes
trees directly comparable with the enumeration oracle and gives the DOT
exporter stable node ids.

Two builders are provided: ``build_canonical`` places leaves straight
from ``expansion_bit``, the random-access bits of the probabilities'
binary expansions (the optimal shape), and ``build_from_uniform`` /
``build_from_discrete`` materialise whatever tree the samplers actually
walk, in O(nodes), from the node lists of the oracle's one trie walk
under the samplers' own level rules: a history that terminates carries
its outcome and is a leaf, one still running is internal.  The tests
keep a reference builder that replays the samplers on every history.
``check_optimal`` compares any tree against the expansion-bit
characterisation of optimality.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .analysis import FlipDistribution
from .discrete import ProbabilityVector, _die
from .oracle import _expand

# node payloads: an int is a leaf outcome, INTERNAL marks a branch node
INTERNAL = None


@dataclass
class DdgTree:
    """Binary tree over bit histories; internal nodes map to INTERNAL,
    leaves to their outcome.  Internal nodes at the depth bound may have
    unmaterialised children: they form the live frontier of a truncated
    (conceptually infinite) tree."""

    nodes: dict[str, int | None]
    depth_bound: int

    def leaves(self):
        return ((h, out) for h, out in self.nodes.items() if out is not INTERNAL)

    def frontier(self) -> list[str]:
        """Internal nodes whose children were never materialised."""
        return [
            h
            for h, payload in self.nodes.items()
            if payload is INTERNAL and h + "0" not in self.nodes
        ]

    def is_complete(self) -> bool:
        return not self.frontier()

    def live_mass(self) -> Fraction:
        frontier = self.frontier()
        depth = max(map(len, frontier), default=0)
        return Fraction(sum(1 << (depth - len(h)) for h in frontier), 1 << depth)


class MassMismatch(Exception):
    """Tree leaf masses do not reproduce the target distribution (a
    different failure from being suboptimal)."""


def expansion_bit(q: Fraction, j: int) -> int:
    """Bit j of the binary expansion of q in [0, 1].

    Computed as floor(2^j q) mod 2, which equals
    floor(2^j q) - 2 floor(2^(j-1) q) and picks the finite expansion
    whenever one exists (so bit 0 of 1 is 1 and all later bits are 0).
    """
    if j < 0:
        raise ValueError(f"bit index must be >= 0, got {j}")
    return (q.numerator << j) // q.denominator & 1


def build_canonical(p: ProbabilityVector, depth_bound: int) -> DdgTree:
    """Optimal tree straight from the binary expansions.

    Outcome i gets one leaf at every level j where bit j of p_i is 1,
    placed at the lexicographically smallest open positions in ascending
    outcome order; remaining positions branch into the next level.  Level
    0 is the root, a leaf only for an outcome of probability 1.
    """
    if depth_bound < 1:
        raise ValueError(f"depth_bound must be >= 1, got {depth_bound}")
    nodes: dict[str, int | None] = {}
    open_positions = [""]
    for level in range(depth_bound + 1):
        accept = [i for i, q in enumerate(p.probs, start=1) if expansion_bit(q, level)]
        assert len(accept) <= len(open_positions), "expansion bits exceed open slots"
        for position, outcome in zip(open_positions, accept):
            nodes[position] = outcome
        rest = open_positions[len(accept) :]
        for position in rest:
            nodes[position] = INTERNAL
        if not rest or level == depth_bound:
            break
        open_positions = [h + b for h in rest for b in ("0", "1")]
    return DdgTree(nodes, depth_bound)


def build_from_uniform(n: int, depth_bound: int) -> DdgTree:
    """The tree the n-sided die roller actually walks."""
    return _tree(_die(n), depth_bound)


def build_from_discrete(p: ProbabilityVector, depth_bound: int) -> DdgTree:
    """The tree the discrete sampler actually walks."""
    return _tree(p._runs, depth_bound)


def _tree(record, depth_bound: int) -> DdgTree:
    walk = _expand(record, depth_bound)
    return DdgTree({h: out for _, _, nodes in walk for h, _, out in nodes}, depth_bound)


def census(tree: DdgTree) -> dict[tuple[int, int], int]:
    """Leaf counts per (level, outcome)."""
    counts: dict[tuple[int, int], int] = {}
    for history, outcome in tree.leaves():
        key = (len(history), outcome)
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass
class OptimalityVerdict:
    ok: bool
    violations: list[str]

    def __bool__(self) -> bool:
        return self.ok


def check_optimal(tree: DdgTree, p: ProbabilityVector) -> OptimalityVerdict:
    """Verdict on whether ``tree`` is an optimal DDG for ``p``.

    Optimal means every (level, outcome) leaf count is 0 or 1 and equals
    the expansion bit of that outcome's probability, checked through the
    materialised depth.  Raises MassMismatch first if the leaf masses do
    not reproduce ``p`` at all.
    """
    return _check_optimal(tree, p._runs)


def _check_optimal(tree: DdgTree, record) -> OptimalityVerdict:
    """``check_optimal`` against a target's compiled ``record`` (see
    ``discrete``).  It visits only outcomes with leaves or with a 1 bit at
    a checked level, so a sampler tree costs O(leaves + runs x depth)."""
    nums, dens, spans = record
    runs = [range(first, first + length) for first, length in spans]
    counts = census(tree)
    outcomes = runs[-1][-1]
    # leaf mass of outcome i is weight[i] / 2^depth
    depth = max((level for level, _ in counts), default=0)
    weight: dict[int, int] = {}
    for (level, outcome), count in counts.items():
        if not 1 <= outcome <= outcomes:
            raise MassMismatch(f"leaf outcome {outcome} outside 1..{outcomes}")
        weight[outcome] = weight.get(outcome, 0) + (count << (depth - level))
    complete = tree.is_complete()
    # runs hold consecutive outcomes in ascending order, so the outcomes
    # with leaves of each run are the next slice of the sorted ones
    with_leaves = sorted(weight)
    start = 0
    for num, den, run in zip(nums, dens, runs):
        end = bisect_right(with_leaves, run[-1], start)
        target = num << depth
        for i in run if complete and num else with_leaves[start:end]:
            w = weight.get(i, 0)
            if w * den > target or complete and w * den != target:
                mass, q = Fraction(w, 1 << depth), Fraction(num, den)
                raise MassMismatch(
                    f"outcome {i} has leaf mass {mass}, distribution says {q}"
                    if complete
                    else f"outcome {i} has leaf mass {mass} exceeding {q}"
                )
        start = end

    violations = [
        f"outcome {outcome} appears {count} times at level {level}"
        for (level, outcome), count in sorted(item for item in counts.items() if item[1] > 1)
    ]
    # one expansion bit per run and level: a uniform target is a single run
    probs = [(Fraction(num, den), run) for num, den, run in zip(nums, dens, runs)]
    # checked to the depth bound; the mass check left no 1 bit past a complete tree's leaves
    last = min(depth, tree.depth_bound) if complete else tree.depth_bound
    expected = {
        (level, i)
        for level in range(last + 1)
        for q, run in probs
        if expansion_bit(q, level)
        for i in run
    }
    single = {key for key, count in counts.items() if count == 1 and key[0] <= last}
    for level, i in sorted((expected - counts.keys()) | (single - expected)):
        got = counts.get((level, i), 0)
        violations.append(
            f"outcome {i} has {got} leaves at level {level}, expansion bit is {1 - got}"
        )
    return OptimalityVerdict(not violations, violations)


def flip_distribution(tree: DdgTree) -> FlipDistribution:
    """P(N = j) = (leaves at level j) * 2^-j; frontier mass is residual."""
    level_leaves: dict[int, int] = {}
    for history, _ in tree.leaves():
        j = len(history)
        level_leaves[j] = level_leaves.get(j, 0) + 1
    mass = {j: Fraction(count, 1 << j) for j, count in level_leaves.items()}
    return FlipDistribution(mass, tree.live_mass())


def export_dot(tree: DdgTree) -> str:
    """Graphviz DOT text: unlabeled circles for internal nodes, outcome
    labels on leaves, 0/1 edge labels, node ids "r" + bit history."""
    lines = ["digraph ddg {"]
    unresolved = set(tree.frontier())
    for history in sorted(tree.nodes, key=lambda h: (len(h), h)):
        payload = tree.nodes[history]
        node_id = "r" + history
        if payload is INTERNAL:
            style = ', style="dashed"' if history in unresolved else ""
            lines.append(f'  {node_id} [shape=circle, label=""{style}];')
        else:
            lines.append(f'  {node_id} [shape=box, label="{payload}"];')
        if history:
            lines.append(f'  r{history[:-1]} -> {node_id} [label="{history[-1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
