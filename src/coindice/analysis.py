"""Exact rational analysis of the die roller's entropy cost.

Everything here is closed-form.  The expected flip count for an n-sided
die satisfies a one-unknown linear recurrence: from a recycled s-sided
die it takes k(s) = ceil(log2(n/s)) flips to double up to s' = s*2^k in
[n, 2n-1], acceptance happens with probability n/s', and rejection
recycles to an (s'-n)-sided die.  Since each s has exactly one successor
the recurrence forms a rho-shaped chain.  Each step is an integer affine
map E(s) = (a + b*E(s')) / d, and the maps are composed pairwise as a
balanced product tree, so the chain of length L costs O(L log n) bits of
memory and its multiplications are balanced big-by-big products.  The
repeated state closes one linear equation in one unknown.

The independent cross-check sums j * P(N = j) directly from the binary
expansion of 1/n, closing the eventually-periodic tail with a geometric
series, in integer arithmetic normalised once at the end.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .discrete import ProbabilityVector, expansion_bit
from .uniform import _check_sides


class BoundViolation(Exception):
    """The expected flip count escaped its proven bracket: a genuine bug."""


@dataclass
class FlipDistribution:
    """Exact distribution of N, the number of flips a sampler consumes.

    ``mass[j]`` is P(N = j); ``residual`` is the probability mass of runs
    still going at the materialisation depth.  Masses plus residual always
    sum to exactly 1.
    """

    mass: dict[int, Fraction]
    residual: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if any(q < 0 for q in self.mass.values()) or self.residual < 0:
            raise ValueError("negative probability mass")
        total = sum(self.mass.values(), Fraction(0)) + self.residual
        if total != 1:
            raise ValueError(f"masses sum to {total}, expected exactly 1")

    def tail(self, i: int) -> Fraction:
        """P(N > i)."""
        return 1 - sum((q for j, q in self.mass.items() if j <= i), Fraction(0))

    def max_level(self) -> int:
        return max(self.mass, default=0)

    def expectation(self) -> Fraction:
        """Exact E[N]; requires the distribution to be fully materialised."""
        if self.residual != 0:
            raise ValueError(
                f"distribution truncated with residual {self.residual}; "
                "use partial_expectation()"
            )
        return sum((Fraction(j) * q for j, q in self.mass.items()), Fraction(0))

    def partial_expectation(self) -> Fraction:
        """Sum of j * P(N = j) over the materialised levels only."""
        return sum((Fraction(j) * q for j, q in self.mass.items()), Fraction(0))


@dataclass
class RecurrenceSolution:
    """Expected flips plus per-die-size expected visit counts."""

    expected_flips: Fraction
    visit_states: dict[int, Fraction]


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n."""
    return (n - 1).bit_length()


def _chain(n: int):
    """Follow s -> s*2^k - n from s=1 until absorption or a repeat.

    Yields (s, k, s_doubled) steps; the walk ends either because
    acceptance is certain (s_doubled == n) or because a state repeated,
    closing the cycle.
    """
    steps = []
    seen = {}
    s = 1
    while s not in seen:
        seen[s] = len(steps)
        k = ceil_log2((n + s - 1) // s)
        s2 = s << k
        steps.append((s, k, s2))
        s = s2 - n
        if s == 0:
            return steps, None
    return steps, seen[s]


def _compose(maps: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Compose affine maps (a, b, d): x -> (a + b*y) / d, first map outermost.

    Adjacent pairs are merged level by level, a balanced product tree, so
    operands grow together instead of one long product absorbing each
    small factor in turn.
    """
    while len(maps) > 1:
        merged = [
            (a1 * d2 + b1 * a2, b1 * b2, d1 * d2)
            for (a1, b1, d1), (a2, b2, d2) in zip(maps[::2], maps[1::2])
        ]
        if len(maps) % 2:
            merged.append(maps[-1])
        maps = merged
    return maps[0]


def exact_expected_flips(n: int) -> Fraction:
    """Exact expected number of coin flips to roll a fair n-sided die.

    Step (s, k, s') of the recycle chain is the integer affine map
    E(s) = (k*s' + (s' - n) * E(s')) / s'.  The cycle's maps compose to
    E(s*) = (a + b*E(s*)) / d, so E(s*) = a / (d - b); the prefix maps,
    if any, carry that back to E(1).  Composition runs as a balanced
    product tree and one Fraction is normalised at the end, so memory is
    O(L log n) bits for a chain of length L.
    """
    _check_sides(n)
    if n == 1:
        return Fraction(0)
    steps, cycle_start = _chain(n)
    maps = [(k * s2, s2 - n, s2) for _, k, s2 in steps]
    if cycle_start is None:
        # a doubling landed exactly on n: acceptance was certain, b = 0
        a, _, d = _compose(maps)
        return Fraction(a, d)
    a_c, b_c, d_c = _compose(maps[cycle_start:])
    a_p, b_p, d_p = _compose(maps[:cycle_start]) if cycle_start else (0, 1, 1)
    # E(1) = (a_p + b_p * a_c / (d_c - b_c)) / d_p
    return Fraction(a_p * (d_c - b_c) + b_p * a_c, d_p * (d_c - b_c))


def solve_recurrence(n: int) -> RecurrenceSolution:
    """Expected flips plus expected visits to each recycled die size."""
    _check_sides(n)
    expected = exact_expected_flips(n)
    visits: dict[int, Fraction] = {}
    if n == 1:
        return RecurrenceSolution(expected, visits)
    steps, cycle_start = _chain(n)
    reach = Fraction(1)
    reaches = []
    for s, k, s2 in steps:
        reaches.append(reach)
        reach *= Fraction(s2 - n, s2)
    if cycle_start is None:
        for (s, _, _), r in zip(steps, reaches):
            visits[s] = r
    else:
        # cycle weight: product of continuation probabilities once around
        cycle_weight = reach / reaches[cycle_start]
        boost = 1 / (1 - cycle_weight)
        for idx, ((s, _, _), r) in enumerate(zip(steps, reaches)):
            visits[s] = r * boost if idx >= cycle_start else r
    # internal consistency: total flips spent at each size reproduce E
    assert sum((visits[s] * k for s, k, _ in steps), Fraction(0)) == expected
    return RecurrenceSolution(expected, visits)


def flip_distribution_uniform(n: int, depth: int) -> FlipDistribution:
    """Flip-count distribution of the optimal n-sided die roller.

    P(N = j) = n * bit_j(1/n) * 2^-j; mass beyond ``depth`` is reported
    as the residual.
    """
    _check_sides(n)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    q = Fraction(1, n)
    mass: dict[int, Fraction] = {}
    for j in range(depth + 1):
        if expansion_bit(q, j):
            mass[j] = Fraction(n, 1 << j)
    residual = 1 - sum(mass.values(), Fraction(0))
    return FlipDistribution(mass, residual)


def _multiplicative_order_of_two(q: int) -> int:
    order = 1
    value = 2 % q
    while value != 1:
        value = (2 * value) % q
        order += 1
    return order


def series_expected_flips(n: int) -> Fraction:
    """E[N] summed directly from the bits of 1/n, closed in exact form.

    The expansion of 1/n has v2(n) leading zeros followed by a periodic
    block whose length is the multiplicative order of 2 modulo the odd
    part of n; the infinite tail collapses with geometric series sums.
    The block is accumulated as integers and normalised once, so the cost
    is O(period) big-int additions.  Never touches the recycle chain, so
    it checks exact_expected_flips independently.
    """
    _check_sides(n)
    if n == 1:
        return Fraction(0)
    a = (n & -n).bit_length() - 1  # v2(n)
    q = n >> a
    if q == 1:
        return Fraction(a)  # n = 2^a: exactly a flips, always
    period = _multiplicative_order_of_two(q)
    # Horner over the periodic digits c_1..c_period of 1/n that follow the
    # a zeros: over the common denominator 2^(a+period),
    #   weighted = sum of (a+u) c_u 2^(period-u),  plain = sum of c_u 2^(period-u)
    weighted = plain = 0
    r = (1 << a) % n
    for u in range(1, period + 1):
        r *= 2
        c = r // n
        r %= n
        weighted = 2 * weighted + c * (a + u)
        plain = 2 * plain + c
    # closing the tail with sum of x^t = 1/(1-x) and sum of t x^t = x/(1-x)^2,
    # x = 2^-period, turns n * sum_j j P(N=j) into one fraction
    ones = (1 << period) - 1
    return Fraction(n * (weighted * ones + period * plain), (ones * ones) << a)


@dataclass
class BoundsRow:
    n: int
    expected: Fraction
    lower: int
    upper: int


@dataclass
class BoundsReport:
    """Sweep of the proven bracket ceil(log2 n) <= E[N] <= ceil(log2 n) + 1."""

    n_max: int
    rows: list[BoundsRow]
    min_upper_slack: tuple[int, Fraction]
    max_upper_slack: tuple[int, Fraction]


def verify_bounds(n_max: int) -> BoundsReport:
    """Check the expected-flip bracket for every n up to ``n_max``.

    Raises BoundViolation on the first offending n instead of reporting
    it quietly: a violation means a bug, not a data point.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rows = []
    min_slack: tuple[int, Fraction] | None = None
    max_slack: tuple[int, Fraction] | None = None
    for n in range(1, n_max + 1):
        expected = exact_expected_flips(n)
        lower = ceil_log2(n)
        upper = lower + 1
        if expected < lower:
            raise BoundViolation(f"n={n}: E[N]={expected} below lower bound {lower}")
        if expected > upper:
            raise BoundViolation(f"n={n}: E[N]={expected} above upper bound {upper}")
        rows.append(BoundsRow(n, expected, lower, upper))
        slack = upper - expected
        if min_slack is None or slack < min_slack[1]:
            min_slack = (n, slack)
        if max_slack is None or slack > max_slack[1]:
            max_slack = (n, slack)
    assert min_slack is not None and max_slack is not None
    return BoundsReport(n_max, rows, min_slack, max_slack)


def entropy(p: ProbabilityVector) -> float:
    """Shannon entropy in bits, float64 precision.

    Reporting only: never used in exact assertions.
    """
    total = 0.0
    for q in p.probs:
        if q > 0:
            x = float(q)
            total -= x * math.log2(x)
    return total
