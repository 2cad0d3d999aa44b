"""The sampler's DDG tree: its trie walk, trees and flip distributions.

A DDG (discrete-distribution-generating) tree of Knuth and Yao is walked
by coin flips (0 = left, 1 = right) until a leaf emits an outcome; a leaf
at level j carries probability 2^-j.  Nodes are keyed by bit history, so
trees compare directly with the walk and DOT node ids are stable.

``_expand`` walks every bit string to a depth bound as a shared-prefix
trie, at a cost of the live states per level (at most 2n - 1 for a die)
times the depth, not 2^depth: the recycled pair (x, m) of both samplers
stepped through the level rule of ``discrete._levels``.  It checks
``WALK_BUDGET`` from the level counts alone, then yields one level at a
time to readers that write, tally or keep it.  One verdict checks leaf
counts per (level, outcome) against ``expansion_bit``, the random-access
bits of the binary expansions by which ``build_canonical`` places its
leaves, and one writer turns nodes into DOT lines.  A
``FlipDistribution`` holds leaf and live counts per level.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat

from .discrete import ProbabilityVector, _die, _levels

# the summed length of all bit histories a walk may yield: it bounds output and walk time, not
# memory held; ``tree --die 9406 --check`` took 0.5-0.7 s and 49 MB RSS (2-vCPU Xeon)
WALK_BUDGET = 1 << 23
# mass and output grow with depth squared: 1/3,2/3 at 2^14 took 7.5 s, 39 MB
DEPTH_BUDGET = 1 << 14


@dataclass
class FlipDistribution:
    """Exact distribution of N, the number of flips a sampler consumes.

    ``leaves[j]`` histories stop after exactly j flips and ``live`` still
    run at depth d = len(leaves) - 1, so sum_j leaves[j] * 2^(d - j) + live
    = 2^d.  From them, ``mass[j]`` = P(N = j) for each level with a leaf
    and ``residual`` is the probability mass of runs still going; equal
    distributions compare equal whatever their depth.
    """

    leaves: list[int] = field(compare=False)
    live: int = field(default=0, compare=False)
    mass: dict[int, Fraction] = field(init=False)
    residual: Fraction = field(init=False)

    def __post_init__(self) -> None:
        if min([*self.leaves, self.live]) < 0:
            raise ValueError("negative probability mass")
        depth = len(self.leaves) - 1
        filled = sum(k << (depth - j) for j, k in enumerate(self.leaves) if k) + self.live
        if filled != 1 << depth:
            raise ValueError(f"masses sum to {Fraction(filled, 1 << depth)}, expected exactly 1")
        self.mass = {j: Fraction(k, 1 << j) for j, k in enumerate(self.leaves) if k}
        self.residual = Fraction(self.live, 1 << depth)

    def expectation(self) -> Fraction:
        """Exact E[N]; requires the distribution to be fully materialised."""
        if self.residual != 0:
            raise ValueError(
                f"distribution truncated with residual {self.residual}; "
                "use partial_expectation()"
            )
        return self.partial_expectation()

    def partial_expectation(self) -> Fraction:
        """Sum of j * P(N = j) over the materialised levels only."""
        depth = len(self.leaves) - 1
        weighted = sum(j * k << (depth - j) for j, k in enumerate(self.leaves) if k)
        return Fraction(weighted, 1 << depth)


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
    ``discrete``) to ``depth``, or until no history runs: a generator of
    one (k, m, nodes) per level, nodes (history, x, outcome) in (length,
    history) order, where a history that terminates there has state (x, k)
    and its outcome, one still running (x, m) and outcome None.  Raises
    ValueError at once if the summed length of all histories would pass
    ``WALK_BUDGET`` characters."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    # level j holds k + m histories of j characters; level 0 is the root
    plan, m, size = [], 0, 0
    for j, (k, accepted) in enumerate(islice(_levels(record), depth + 1)):
        m = (2 * m if j else 1) - k
        size += j * (k + m)
        if size > WALK_BUDGET:
            raise ValueError(
                f"trie walk to depth {depth} passes the walk budget of {WALK_BUDGET} "
                f"history characters at level {j}"
            )
        plan.append((k, m, accepted))
        if not m:
            break
    return _walk(plan)


def _walk(plan):
    """The levels of ``_expand``, each built from the one before."""
    (k, m, accepted), *deeper = plan
    nodes = [("", 1, accepted[0][0] if k else None)]
    yield k, m, nodes
    for k, live, accepted in deeper:
        # one list per level: indexing it per leaf beats walking the spans
        accept = []
        for first, length in accepted:
            accept += range(first, first + length)
        children = []
        append = children.append
        for history, x, outcome in nodes:
            if outcome is None:
                h0, h1, x1 = history + "0", history + "1", x + m
                append((h0, x, accept[x - 1]) if x <= k else (h0, x - k, None))
                append((h1, x1, accept[x1 - 1]) if x1 <= k else (h1, x1 - k, None))
        nodes, m = children, live
        yield k, m, nodes


def _tally(walk, depth: int) -> EnumerationResult:
    # a leaf at level j carries 2^(depth - j) / 2^depth
    outcome_weight: dict[int, int] = {}
    leaves: dict[str, int] = {}
    counts = []
    for j, (k, m, nodes) in enumerate(walk):
        counts.append(k)
        weight = 1 << (depth - j)
        for history, _, outcome in nodes:
            if outcome is not None:
                leaves[history] = outcome
                outcome_weight[outcome] = outcome_weight.get(outcome, 0) + weight
    masses = {w: Fraction(w, 1 << depth) for w in set(outcome_weight.values())}
    outcome_mass = {o: masses[w] for o, w in outcome_weight.items()}
    flips = FlipDistribution(counts, m)
    return EnumerationResult(outcome_mass, flips.mass, flips.residual, leaves)


def enumerate_uniform(n: int, depth: int) -> EnumerationResult:
    """Exact outcome and flip-count masses for the n-sided die roller."""
    return _tally(_expand(_die(n), depth), depth)


def _flip_distribution(record, depth: int) -> FlipDistribution:
    """Flip-count distribution of the optimal sampler of a compiled
    ``record`` (see ``discrete``): P(N = j) = sum over runs of
    |outcomes| * bit_j(num / den) * 2^-j (Knuth and Yao), read as the
    k_j outcomes the level rule accepts at level j, with the live count
    m = 1 - k_0, then m <- 2m - k_j per level, to ``depth``."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > DEPTH_BUDGET:
        raise ValueError(f"depth {depth} passes the depth budget of {DEPTH_BUDGET} levels")
    leaves = [k for k, _ in islice(_levels(record), depth + 1)]
    live = 1 - leaves[0]
    for k in leaves[1:]:
        live = 2 * live - k
    return FlipDistribution(leaves, live)


def flip_distribution_uniform(n: int, depth: int) -> FlipDistribution:
    """Flip-count distribution of the optimal n-sided die roller, the
    target 1/n x n."""
    return _flip_distribution(_die(n), depth)


@dataclass
class DdgTree:
    """Binary tree over bit histories; internal nodes map to None,
    leaves to their outcome.  Internal nodes at the depth bound may have
    unmaterialised children: they form the live frontier of a truncated
    (conceptually infinite) tree."""

    nodes: dict[str, int | None]
    depth_bound: int

    def leaves(self):
        return ((h, out) for h, out in self.nodes.items() if out is not None)

    def frontier(self) -> list[str]:
        """Internal nodes whose children were never materialised."""
        nodes = self.nodes
        return [h for h, payload in nodes.items() if payload is None and h + "0" not in nodes]

    def is_complete(self) -> bool:
        return not self.frontier()


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
        nodes.update(zip(open_positions, accept))
        rest = open_positions[len(accept) :]
        nodes.update(dict.fromkeys(rest, None))
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
    return dict(Counter((len(history), outcome) for history, outcome in tree.leaves()))


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
    """``check_optimal`` against a target's compiled ``record`` (see ``discrete``)."""
    return _verdict(census(tree), tree.is_complete(), tree.depth_bound, record)


def _verdict(counts, complete: bool, depth_bound: int, record) -> OptimalityVerdict:
    """The verdict on leaf ``counts`` per (level, outcome) of a tree, with no frontier if
    ``complete``, visiting only outcomes with leaves or a 1 bit: O(leaves + runs x depth)."""
    nums, dens, spans = record
    runs = [range(first, first + length) for first, length in spans]
    outcomes = runs[-1][-1]
    # leaf mass of outcome i is weight[i] / 2^depth
    depth = max((level for level, _ in counts), default=0)
    weight: dict[int, int] = {}
    for (level, outcome), count in counts.items():
        if not 1 <= outcome <= outcomes:
            raise MassMismatch(f"leaf outcome {outcome} outside 1..{outcomes}")
        weight[outcome] = weight.get(outcome, 0) + (count << (depth - level))
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
    # checked to the depth bound; the mass check left no 1 bit past a complete tree's leaves
    last = min(depth, depth_bound) if complete else depth_bound
    # the runs with a 1 bit at each checked level: a uniform target is a single run
    probs = [Fraction(num, den) for num, den in zip(nums, dens)]
    ones = [{r for r, q in enumerate(probs) if expansion_bit(q, j)} for j in range(last + 1)]
    firsts = [first for first, _ in spans]
    # the missing leaves of 1 bits, then the single leaves of 0 bits
    wrong = [(j, i) for j, bits in enumerate(ones) for r in bits for i in runs[r]
             if (j, i) not in counts]
    wrong += [(j, i) for (j, i), count in counts.items()
              if count == 1 and j <= last and bisect_right(firsts, i) - 1 not in ones[j]]
    for level, i in sorted(wrong):
        got = counts.get((level, i), 0)
        violations.append(
            f"outcome {i} has {got} leaves at level {level}, expansion bit is {1 - got}"
        )
    return OptimalityVerdict(not violations, violations)


def flip_distribution(tree: DdgTree) -> FlipDistribution:
    """Leaves per level; each frontier node at level j counts as
    2^(depth - j) live runs at the depth of the deepest node."""
    depth = max(map(len, tree.nodes))
    leaves = [0] * (depth + 1)
    for history, _ in tree.leaves():
        leaves[len(history)] += 1
    return FlipDistribution(leaves, sum(1 << (depth - len(h)) for h in tree.frontier()))


def export_dot(tree: DdgTree) -> str:
    """Graphviz DOT text: ``_dot`` lines of ``tree`` in (length, history) order."""
    ordered = sorted(tree.nodes, key=lambda h: (len(h), h))
    nodes = zip(ordered, repeat(None), map(tree.nodes.__getitem__, ordered))
    return "".join(["digraph ddg {\n", *_dot(nodes, set(tree.frontier())), "}\n"])


def _dot(nodes, unresolved) -> list[str]:
    """DOT lines of nodes (history, x, payload) as the walk lists them, ids "r" +
    history: circles for internal nodes, dashed if ``unresolved``, labelled boxes for leaves."""
    lines = []
    append = lines.append
    for history, _, payload in nodes:
        node_id = "r" + history
        if payload is None:
            style = ', style="dashed"' if history in unresolved else ""
            append(f'  {node_id} [shape=circle, label=""{style}];\n')
        else:
            append(f'  {node_id} [shape=box, label="{payload}"];\n')
        if history:
            append(f'  r{history[:-1]} -> {node_id} [label="{history[-1]}"];\n')
    return lines
