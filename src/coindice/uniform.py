"""Fair n-sided die rolls from fair coin flips via randomness recycling.

The roller keeps a state pair (x, m) with x conditionally uniform on
{1..m}.  Each coin flip doubles the die: x <- x + bit*m, m <- 2m.  Once
m reaches n the roll either accepts (x <= n: output x) or recycles the
leftover uniformity (x <- x - n, m <- m - n) instead of starting over.
As in Lumbroso's Fast Dice Roller, the loop flips while m < n, then resolves.
The number of flips this uses is optimal in the Knuth-Yao sense; see the
``ddg`` and ``analysis`` modules for the machinery that verifies that.

The state never exceeds m = 2n - 1, so a roll needs the input n, the
pair (x, m) and the current bit: memory stays linear in the bit width
of n.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .bitsource import BitSource


class RecyclerState(NamedTuple):
    """State pair of the roller: x is uniform on {1..m} given m."""

    x: int
    m: int


@dataclass(slots=True)
class TracedRoll:
    """One sample outcome plus its exact entropy cost.

    ``trace`` (opt-in) lists every intermediate state: the pair after
    each doubling, and the pair after an accept/recycle resolution when
    one fired.
    """

    outcome: int
    flips: int
    trace: list[RecyclerState] | None = None


def _check_sides(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"number of sides must be an int, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"number of sides must be >= 1, got {n}")


def roll(n: int, source: BitSource, trace: bool = False) -> TracedRoll:
    """Roll a fair n-sided die, consuming bits from ``source``.

    Returns the outcome in {1..n} together with the number of bits
    consumed; a source that runs dry mid-roll raises its own error.
    This is ``discrete.sample`` of 1/n x n, with the level rule on the
    die's one run (``discrete._die``) inlined as arithmetic on m.
    """
    _check_sides(n)
    return _roll(n, source, trace)


def _roll(n: int, source: BitSource, trace: bool = False) -> TracedRoll:
    """``roll`` of an n its caller has checked once for many rolls."""
    next_bit = source.next_bit
    x, m = 1, 1
    flips = 0
    states = [RecyclerState(1, 1)] if trace else None
    while True:
        while m < n:
            x += next_bit() * m
            m *= 2
            flips += 1
            if states is not None:
                states.append(RecyclerState(x, m))
        if x <= n:
            if states is not None and m != n:
                states.append(RecyclerState(x, n))
            return TracedRoll(x, flips, states)
        x -= n
        m -= n
        if states is not None:
            states.append(RecyclerState(x, m))


def roll_many(n: int, count: int, source: BitSource, trace: bool = False) -> list[TracedRoll]:
    """Roll ``count`` times, drawing bits sequentially from one source."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    _check_sides(n)
    return [_roll(n, source, trace) for _ in range(count)]
