"""Fair-bit suppliers with exact accounting of how many bits were drawn.

Every sampler here pulls single bits from a ``BitSource`` and reads its
entropy cost off ``flips_consumed``: the base class counts each ``_draw``,
while ``SeededSource`` flips in one C call and counts by position.
``SeededSource`` takes SplitMix64's steps with 0x9E3779B97F4A7C15,
0xBF58476D1ED4CE4B and 0x94D049BB133111EB; splitmix64.c has
0xBF58476D1CE4E5B9 second, so the streams are not its.
"""

import abc
from itertools import chain
from operator import length_hint

_MASK64 = (1 << 64) - 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to the bits 0 and 1


class BitSource(abc.ABC):
    """Supplier of fair bits.  Instances are single-owner: never share one
    source between concurrent consumers."""

    flips_consumed = 0  # bumped per _draw here; a source that has a position derives it

    @abc.abstractmethod
    def _draw(self) -> int:
        """Produce the next bit, 0 or 1, or raise if the source has none left."""

    def next_bit(self) -> int:
        bit = self._draw()  # a draw that raises is not counted: the tally counts bits handed out
        self.flips_consumed += 1
        return bit


def _splitmix64(state: int) -> tuple[int, int]:
    # SplitMix64 step; see https://prng.di.unimi.it/splitmix64.c
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1ED4CE4B) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _words(cell: list):
    """Each word's bits, least significant first; ``cell`` is [state, words, bits], no source."""
    while True:
        cell[0], word = _splitmix64(cell[0])
        cell[1] += 1
        cell[2] = bits = iter(format(word, "064b").encode()[::-1].translate(_BITS))
        yield bits


class SeededSource(BitSource):
    """Deterministic pseudorandom bit stream.

    Generator: ``_splitmix64`` with 0x9E3779B97F4A7C15, 0xBF58476D1ED4CE4B
    and 0x94D049BB133111EB over a 64-bit state set to ``seed`` mod 2**64.
    ``next_bit`` is a chain over ``_words``: a flip is one C call, and
    Python runs once per 64 bits.  ``flips_consumed`` is 64 per word drawn
    less the current word's unread bits.  Seed 0 starts
    0x5b3408bf8c8e5572, bit 0 first.
    """

    def __init__(self, seed: int) -> None:
        self._cell = cell = [seed & _MASK64, 0, iter(b"")]
        self.next_bit = chain.from_iterable(_words(cell)).__next__

    def __reduce__(self):  # a copy or pickle starts one word back and skips the bits read
        state, words, bits = self._cell
        return SeededSource, (state - 0x9E3779B97F4A7C15,), (words, 64 - length_hint(bits))

    def __setstate__(self, position: tuple[int, int]) -> None:
        for _ in range(position[1]):
            self.next_bit()
        self._cell[1] = position[0]

    _draw = lambda self: self.next_bit()  # fills the abstract hook
    flips_consumed = property(lambda self: 64 * self._cell[1] - length_hint(self._cell[2]))
