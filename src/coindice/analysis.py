"""Exact rational analysis of the die roller's entropy cost.

Everything here is closed-form.  The optimal n-sided die roller stops
after exactly j flips with probability P(N = j) = n * bit_j(1/n) * 2^-j
(Knuth and Yao), so E[N] is a weighted sum over the binary expansion of
1/n, and that expansion is periodic.  Write n = 2^a * q with q odd.  The
expansion is a zeros followed by the repeating block B = (2^P - 1)/q of
1/q, whose length P = ord_q(2) is the multiplicative order of 2 mod q.
Digit u = 1..P of the block is bit_{P-u}(B), and it recurs at positions
j = a + t*P + u for t = 0, 1, ...  With x = 2^-P,

    E[N] = q * sum_t x^t * sum_u (a + t*P + u) * bit_{P-u}(B) * 2^-u
         = q * (x*W / (1 - x) + P*B * x^2 / (1 - x)^2)

after summing sum_t x^t = 1/(1-x) and sum_t t*x^t = x/(1-x)^2, where

    W = sum_i (a + P - i) * bit_i(B) * 2^i = (a + P)*B - sum_i i*bit_i(B)*2^i.

Since q*B = 2^P - 1 this collapses to one fraction with P-bit parts,

    E[N] = (q*W + P) / (2^P - 1).

The bit-weighted sum takes ceil(log2 P) masked ANDs and P comes from
doubling or from the Carmichael function, so no per-digit or per-state
loop is left and memory is O(P) bits.  P is refused past
``PERIOD_BUDGET`` and a flip distribution's depth past ``DEPTH_BUDGET``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .discrete import ProbabilityVector, _die, _levels
from .uniform import _check_sides


# E[N] of n = 2097133 (P = 2097132) took 8.9 s, of n = 4000037 37.6 s (2-vCPU Xeon)
PERIOD_BUDGET = 1 << 21
# mass and output grow with depth squared: 1/3,2/3 at 2^14 took 7.5 s, 39 MB
DEPTH_BUDGET = 1 << 14


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
        total = _exact_sum([(q.numerator, q.denominator) for q in self.mass.values()])
        total += self.residual
        if total != 1:
            raise ValueError(f"masses sum to {total}, expected exactly 1")

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
        return _exact_sum([(j * q.numerator, q.denominator) for j, q in self.mass.items()])


def _exact_sum(terms: list[tuple[int, int]]) -> Fraction:
    """Sum of the pairs (num, den): integer adds over one common denominator."""
    den = math.lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n."""
    return (n - 1).bit_length()


def _order_of_two(q: int) -> int:
    """ord_q(2) for odd q > 1: the period of the binary expansion of 1/q.

    Doubling settles a short order within isqrt(q) + 1 steps; that covers
    q such as 2^61 - 1, whose trial-division factorisation would take a
    billion steps.  Past the cap the order divides the Carmichael
    function lambda(q), read off trial-division factorisations of q and
    lambda(q) that cost no more than the doubling did, and each prime
    factor of lambda is stripped while 2 stays a root of unity.  An order
    past ``PERIOD_BUDGET`` raises ValueError, and no route walks past it.
    """
    value = 2
    for order in range(1, min(math.isqrt(q) + 1, PERIOD_BUDGET) + 1):
        if value == 1:
            return order
        value = value * 2 % q
    if math.isqrt(q) < PERIOD_BUDGET:  # else the doubling stopped at the budget
        order = 1
        for p, k in _factor(q).items():
            order = math.lcm(order, p ** (k - 1) * (p - 1))
        for p in _factor(order):
            while order % p == 0 and pow(2, order // p, q) == 1:
                order //= p
        if order <= PERIOD_BUDGET:
            return order
    raise ValueError(f"the period of 1/n passes the period budget of {PERIOD_BUDGET} bits")


def _factor(m: int) -> dict[int, int]:
    """Prime factorisation of m >= 1 by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _bit_weighted_sum(b: int, width: int) -> int:
    """Sum of i * bit_i(b) * 2^i over the bits of b < 2^width.

    Mask k has ones at the positions whose index has bit k set, so the sum
    is sum_k 2^k * (b & mask_k): ceil(log2 width) ANDs, each mask built by
    doubling its period-2^(k+1) pattern.
    """
    total = 0
    run = 1  # 2^k
    while run < width:
        mask = ((1 << run) - 1) << run
        span = 2 * run
        while span < width:
            mask |= mask << span
            span *= 2
        total += (b & mask) * run
        run *= 2
    return total


def exact_expected_flips(n: int) -> Fraction:
    """Exact expected number of coin flips to roll a fair n-sided die.

    E[N] = (q*W + P) / (2^P - 1) for n = 2^a * q, q odd, from the period
    P = ord_q(2) of 1/n and its repeating block B (derived in the module
    docstring).  One Fraction with P-bit parts is normalised at the end.
    """
    _check_sides(n)
    a = (n & -n).bit_length() - 1  # v2(n)
    q = n >> a
    if q == 1:
        return Fraction(a)  # n = 2^a: exactly a flips, always
    period = _order_of_two(q)
    ones = (1 << period) - 1
    block = ones // q
    weighted = (a + period) * block - _bit_weighted_sum(block, period)
    return Fraction(q * weighted + period, ones)


def _flip_distribution(record, depth: int) -> FlipDistribution:
    """Flip-count distribution of the optimal sampler of a compiled
    ``record`` (see ``discrete``): P(N = j) = sum over runs of
    |outcomes| * bit_j(num / den) * 2^-j (Knuth and Yao), read as the
    outcomes the level rule accepts at level j, with the mass beyond
    ``depth`` as the residual: the live count m = 1 - k_0, then
    m <- 2m - k_j per level, over 2^depth."""
    if depth > DEPTH_BUDGET:
        raise ValueError(f"depth {depth} passes the depth budget of {DEPTH_BUDGET} levels")
    leaves = [k for k, _ in islice(_levels(record), depth + 1)]
    mass = {j: Fraction(count, 1 << j) for j, count in enumerate(leaves) if count}
    live = 1 - leaves[0]
    for k in leaves[1:]:
        live = 2 * live - k
    return FlipDistribution(mass, Fraction(live, 1 << depth))


def flip_distribution_uniform(n: int, depth: int) -> FlipDistribution:
    """Flip-count distribution of the optimal n-sided die roller, the
    target 1/n x n."""
    record = _die(n)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return _flip_distribution(record, depth)


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
    for n in range(1, n_max + 1):
        expected = exact_expected_flips(n)
        lower = ceil_log2(n)
        upper = lower + 1
        if expected < lower:
            raise BoundViolation(f"n={n}: E[N]={expected} below lower bound {lower}")
        if expected > upper:
            raise BoundViolation(f"n={n}: E[N]={expected} above upper bound {upper}")
        rows.append(BoundsRow(n, expected, lower, upper))
    slack = {row.n: row.upper - row.expected for row in rows}
    # min and max return the first of equal keys, so the smallest n wins a tie
    low, high = min(slack, key=slack.get), max(slack, key=slack.get)
    return BoundsReport(n_max, rows, (low, slack[low]), (high, slack[high]))


def _entropy(record) -> float:
    """Shannon entropy in bits of a compiled ``record`` (see
    ``discrete``).  A run of up to 2^20 outcomes subtracts its float term
    once per outcome, so such a die matches its n-entry vector bit for bit.
    A longer run subtracts term * length once: its loop would take about
    40 ms per 2^20 outcomes, and past 2^53 the total stops growing.  A
    probability below the smallest float adds nothing."""
    nums, dens, spans = record
    total = 0.0
    for num, den, (_, length) in zip(nums, dens, spans):
        x = num / den  # the correctly rounded float(Fraction(num, den))
        if x > 0:
            term = x * math.log2(x)
            if length > 1 << 20:
                total -= term * length
                continue
            for _ in range(length):
                total -= term
    return total


def entropy(p: ProbabilityVector) -> float:
    """Shannon entropy in bits, float64 precision.

    Reporting only: never used in exact assertions.
    """
    return _entropy(p._runs)
