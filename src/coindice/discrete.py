"""Fair dice and exact-rational distributions from fair coin flips.

Both draw loops keep a recycled pair (x, m), x uniform on {1..m} given m.
A flip doubles it: x <- x + bit*m, m <- 2m.  A resolution against k
accepted outcomes accepts (x <= k: the x-th of them) or recycles the
leftover uniformity (x <- x - k, m <- m - k) instead of starting over.
Both flip counts are Knuth-Yao optimal, as ``ddg`` and ``analysis`` check.
Outcome i is accepted at level j when bit j of its probability, an exact
``Fraction``, is 1.  Every target, a vector or a fair die, compiles once
into one record ``(nums, dens, spans)``: per run of consecutive outcomes
that share the probability num/den its numerator, denominator and span
(first, length).  A vector has one run per maximal block of equal
neighbours, so 1/n x n compiles to the die's record, one run
(1, n, (1, n)), which ``_die`` builds in O(1).  The sampler, the trie
walk, the tree checks and the analysis all read that record.  The level
rule reads the acceptance sets off one integer residual per run,
num * 2^j mod 2 * den on entering level j, so it opens at any level and
gives bit j of every outcome in the run at once, with no rounding and
memory linear in the input.  A level yields its accepted spans, and the
sampler finds the x-th accepted outcome by walking their lengths.
``sample`` keeps the levels draws have reached in a capped table, and
``_deeper`` opens the rule at the table's end when a draw outruns it.

``_roll`` is ``sample``'s arithmetic fast path on the die's one run, which
accepts all n sides at a level exactly when the doubled m reaches n: as in
Lumbroso's Fast Dice Roller, it flips while m < n, then resolves, so m
stays below 2n.  Through ``sample`` a roll keeps every outcome and flip
but takes 1.00-1.63x the time (ROADMAP aim 2, route (a)).
"""

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .bitsource import BitSource


@dataclass(slots=True)
class TracedRoll:
    """One sample outcome and its exact entropy cost, the flips it read.
    A draw records no (x, m) states: the trie walk (``ddg._expand``,
    ``coindice oracle-dump``) gives the state of every bit history."""

    outcome: int
    flips: int


class InvalidDistribution(Exception):
    """The input does not describe an exact probability distribution."""


_FRACTION_TOKEN = re.compile(r"^[+-]?\d+(/\d+)?$")
_TABLE_BITS = 64  # a draw outlives sample's level table with probability < 2^-64


def _as_exact_fraction(value) -> Fraction:
    if type(value) is Fraction:  # immutable, so no copy; a subclass is rebuilt below
        return value
    if isinstance(value, float):
        raise InvalidDistribution(
            f"floats are not exact: got {value!r}; pass a Fraction, an int, "
            'or a string like "3/8"'
        )
    if isinstance(value, str):
        token = value.strip()
        if not _FRACTION_TOKEN.match(token):
            raise InvalidDistribution(
                f'cannot parse {value!r}: probabilities must be exact fractions "a/b"'
            )
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise InvalidDistribution(f"zero denominator in {value!r}") from None
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise InvalidDistribution(str(exc)) from None
    if isinstance(value, (int, Fraction)) and type(value) is not bool:
        return Fraction(value)
    raise InvalidDistribution(f"unsupported probability type {type(value).__name__}")


def _exact(v: int) -> int | str:
    """v, or v in hex when it has more digits than str() may print: |v| >= 10^limit."""
    limit = sys.get_int_max_str_digits()
    # a part of at most 3·limit bits is below 2^(3·limit) < 10^limit: no power of ten is built
    fits = not limit or v.bit_length() <= 3 * limit or abs(v) < 10**limit
    return v if fits else hex(v)


def _frac(q: Fraction) -> str:
    return f"{_exact(q.numerator)}/{_exact(q.denominator)}"


class ProbabilityVector:
    """Ordered exact probabilities for outcomes 1..K, summing to exactly 1."""

    def __init__(self, entries) -> None:
        probs = tuple(_as_exact_fraction(e) for e in entries)
        if not probs:
            raise InvalidDistribution("distribution needs at least one outcome")
        # one run per maximal block of equal neighbours, so each level
        # costs O(runs); only neighbours merge, which keeps acceptance
        # lists ascending; a run's first outcome is its first negative one
        nums, dens, spans, first = [], [], [], 1
        for (num, den), block in groupby((q.numerator, q.denominator) for q in probs):
            if num < 0:
                q = probs[first - 1]
                raise InvalidDistribution(f"outcome {first} has negative probability {_frac(q)}")
            length = sum(1 for _ in block)
            nums.append(num)
            dens.append(den)
            spans.append((first, length))
            first += length
        total = sum(Fraction(num * span[1], den) for num, den, span in zip(nums, dens, spans))
        if total != 1:
            raise InvalidDistribution(f"probabilities sum to {_frac(total)}, expected exactly 1")
        self.probs = probs
        self._runs = tuple(nums), tuple(dens), tuple(spans)
        self._table = ()  # the levels sample has reached; see _deeper

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProbabilityVector) and self.probs == other.probs

    def __repr__(self) -> str:
        # _frac prints parts past the digit limit in hex; str() prints 0 and 1 bare
        parts = (str(q) if q.denominator == 1 else _frac(q) for q in self.probs)
        return f"ProbabilityVector({', '.join(parts)})"


def parse_distribution(text: str) -> ProbabilityVector:
    """Parse a CLI distribution spec.

    Accepts comma-separated exact fractions ("3/8,1/2,1/8") or a JSON
    array of {"num": ..., "den": ...} objects.  Decimal notation is
    rejected: exactness is part of the contract.
    """
    text = text.strip()
    if text.startswith("["):
        try:
            items = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, huge int, deep nesting
            raise InvalidDistribution(f"bad JSON distribution: {exc}") from exc
        entries = []
        for item in items:
            # bool is an int subclass, but JSON true is not a number
            if (
                not isinstance(item, dict)
                or type(item.get("num")) is not int
                or type(item.get("den")) is not int
            ):
                raise InvalidDistribution(
                    'JSON distribution entries must be {"num": <int>, "den": <int>}'
                )
            if item["den"] == 0:
                raise InvalidDistribution(f"zero denominator in {item!r}")
            entries.append(Fraction(item["num"], item["den"]))
        return ProbabilityVector(entries)
    return ProbabilityVector(text.split(","))


def _check_sides(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"number of sides must be an int, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"number of sides must be >= 1, got {n}")


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n."""
    return (n - 1).bit_length()


def _die(n: int):
    """The fair n-sided die's record: one run, all n sides at 1/n."""
    _check_sides(n)
    return (1,), (n,), ((1, n),)


def _levels(record, start=0):
    """(k, accepted spans) of each level start, start + 1, ... of the DDG
    tree of a compiled ``record`` (see the module docstring), where k is
    the number of accepted outcomes, the summed length of the spans.

    Opens with one residual per run, num * 2^start mod 2 * den (num at
    level 0), so no state carries over from an earlier walk.  A level
    accepts the outcomes of every run whose residual reaches den, takes
    den off it and doubles it, so after level j it is
    2 * (num * 2^j mod den).  Level 0 accepts only a run with num = den,
    the outcome of probability 1.

    ``sample`` and ``ddg._expand`` resolve on every nonempty level
    without testing m >= k, and x <= k always names an accepted outcome:
    after level j the live m is the sum over runs of
    length * (num * 2^j mod den) / den, never negative.  So the trie walk
    of level j holds k leaves, x = 1..k, and m live histories, x = 1..m.
    """
    nums, dens, spans = record
    residuals = [(num << start) % (2 * den) for num, den in zip(nums, dens)]
    indices = range(len(dens))
    while True:
        k, accepted = 0, []
        for i in indices:
            r = residuals[i]
            if r >= dens[i]:
                r -= dens[i]
                span = spans[i]
                accepted.append(span)
                k += span[1]
            residuals[i] = 2 * r
        yield k, accepted


def _deeper(p: ProbabilityVector, table):
    """The levels of ``p`` past its ``table``, the (k, accepted spans) of
    levels 0..len(table) - 1, by the rule opened at level len(table).
    Each is added to the table up to level
    ``_TABLE_BITS + len(p).bit_length()``: live m stays below len(p), so
    a draw flips past that level with probability < 2^-_TABLE_BITS.
    ``sample`` starts it only when a draw outruns the table, from the
    table that draw read."""
    for level in _levels(p._runs, len(table)):
        if len(table) <= _TABLE_BITS + len(p).bit_length():
            table += (level,)
            p._table = table  # one store: no interrupt or thread sees it torn
        yield level


def sample(p: ProbabilityVector, source: BitSource) -> TracedRoll:
    """Draw one outcome with exactly the probabilities in ``p``.

    Level by level from level 0: if the recycled pair (x, m) covers the
    level's acceptance set the roll resolves to its x-th smallest member,
    found by walking the accepted spans' lengths; otherwise the leftover
    uniformity carries on, and one flip doubles (x, m) for the next level.
    An empty acceptance level just flips again.  A draw reads the levels
    of ``p``'s table directly, so a level costs O(1) plus the runs walked,
    and starts ``_deeper`` only when it outruns them.
    """
    table = p._table
    next_bit = source.next_bit
    x, m, level, levels = 1, 1, 0, table
    while True:  # the table's levels, then, once a draw outruns them, _deeper's
        for k, accepted in levels:
            if k:
                if x <= k:
                    for first, length in accepted:
                        if x <= length:
                            return TracedRoll(first + x - 1, level)
                        x -= length
                x -= k
                m -= k
            level += 1
            x += next_bit() * m
            m *= 2
        levels = _deeper(p, table)


def roll(n: int, source: BitSource) -> TracedRoll:
    """Roll a fair n-sided die, consuming bits from ``source``.

    Returns the outcome in {1..n} together with the number of bits
    consumed; a source that runs dry mid-roll raises its own error.
    This is ``sample`` of 1/n x n, with the level rule on the die's one
    run (``_die``) inlined as arithmetic on m.
    """
    _check_sides(n)
    return _roll(n, source)


def _roll(n: int, source: BitSource) -> TracedRoll:
    """``roll`` of an n its caller has checked once for many rolls."""
    next_bit = source.next_bit
    x, m = 1, 1
    flips = 0
    while True:
        while m < n:
            x += next_bit() * m
            m *= 2
            flips += 1
        if x <= n:
            return TracedRoll(x, flips)
        x -= n
        m -= n


def roll_many(n: int, count: int, source: BitSource) -> list[TracedRoll]:
    """Roll ``count`` times, drawing bits sequentially from one source."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    _check_sides(n)
    return [_roll(n, source) for _ in range(count)]
