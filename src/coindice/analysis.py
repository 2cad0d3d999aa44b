"""Exact rational analysis of the die roller's entropy cost.

Everything here is closed-form: E[N] from the period of 1/n, the bounds
sweep over it, and entropy.  The optimal n-sided die roller stops after
exactly j flips with probability P(N = j) = n * bit_j(1/n) * 2^-j (Knuth
and Yao).  Bit j + 1 of 1/(2n) is bit j of 1/n, so E(2n) = E(n) + 1, and
for n = 2^a * q with q odd, E(n) = a + E(q).  The expansion of 1/q is
purely periodic: its repeating block B = (2^P - 1)/q has length
P = ord_q(2), the multiplicative order of 2 mod q.  Digit u = 1..P of the
block is bit_{P-u}(B), and it recurs at j = t*P + u for t = 0, 1, ...
With x = 2^-P,

    E(q) = q * sum_t x^t * sum_u (t*P + u) * bit_{P-u}(B) * 2^-u
         = q * (x*W / (1 - x) + P*B * x^2 / (1 - x)^2)

after summing sum_t x^t = 1/(1-x) and sum_t t*x^t = x/(1-x)^2, where

    W = sum_i (P - i) * bit_i(B) * 2^i = P*B - sum_i i*bit_i(B)*2^i.

Since q*B = 2^P - 1 this collapses to one fraction with P-bit parts,

    E(q) = (q*W + P) / (2^P - 1).

The bit-weighted sum takes ceil(log2 P) masked ANDs and P comes from one
baby-step giant-step search, so no per-digit or per-state loop is left
and memory is O(P) bits.  P is refused past ``PERIOD_BUDGET`` after at
most about 2,900 modular products, a sweep past ``SWEEP_BUDGET`` at once.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .discrete import ProbabilityVector, _check_sides, ceil_log2


# E[N] of n = 2097133 (P = 2097132) took 8.9 s, of n = 4000037 37.6 s (2-vCPU Xeon)
PERIOD_BUDGET = 1 << 21
# a sweep holds every row until it returns: 2^14 sizes took 1.2 s and 30 MB,
# 2^15 took 4.7 s and 61 MB (2-vCPU Xeon)
SWEEP_BUDGET = 1 << 15


class BoundViolation(Exception):
    """The expected flip count escaped its proven bracket: a genuine bug."""


def _order_of_two(q: int) -> int:
    """ord_q(2) for odd q > 1: the period of the binary expansion of 1/q.

    One baby-step giant-step search (Shanks) over the orders up to
    bound = min(``PERIOD_BUDGET``, q - 1); the order divides phi(q) <= q - 1.
    With m = isqrt(bound), the baby steps keep 2^j for j < m and settle an
    order up to m; each giant step i = m, 2m, ... multiplies by 2^-m, and
    the first 2^-i equal to a baby 2^j gives the order i + j.  So at most
    about 2 * sqrt(bound) modular products find the order or refuse it.
    An order past ``PERIOD_BUDGET`` raises ValueError.
    """
    bound = min(PERIOD_BUDGET, q - 1)
    m = math.isqrt(bound)
    baby = {}
    value = 1
    for j in range(m):
        baby[value] = j
        value = value * 2 % q
        if value == 1:
            return j + 1
    step = pow(2, -m, q)
    value = 1
    for i in range(m, bound + 1, m):
        value = value * step % q
        j = baby.get(value)
        if j is not None and i + j <= bound:
            return i + j
    raise ValueError(f"the period of 1/n passes the period budget of {PERIOD_BUDGET} bits")


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

    E(n) = a + (q*W + P) / (2^P - 1) for n = 2^a * q, q odd, from the
    period P = ord_q(2) of 1/q and its repeating block B (derived in the
    module docstring).  One Fraction with P-bit parts is normalised at the end.
    """
    _check_sides(n)
    a = (n & -n).bit_length() - 1  # v2(n)
    q = n >> a
    if q == 1:
        return Fraction(a)  # n = 2^a: exactly a flips, always
    period = _order_of_two(q)
    ones = (1 << period) - 1
    block = ones // q
    weighted = period * block - _bit_weighted_sum(block, period)
    return a + Fraction(q * weighted + period, ones)


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
    it quietly: a violation means a bug, not a data point.  An n_max past
    ``SWEEP_BUDGET`` raises ValueError before any work.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > SWEEP_BUDGET:
        raise ValueError(f"a sweep to {n_max} passes the sweep budget of {SWEEP_BUDGET} sizes")
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
    once per outcome: that keeps the printed float the goldens and
    fingerprints record, and term * length differs from it in the last
    bits for 4,947 of the dice n < 5,000.  A longer run subtracts
    term * length once: its loop would take about 40 ms per 2^20
    outcomes, and past 2^53 the total stops growing.  A probability below
    the smallest float adds nothing."""
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
