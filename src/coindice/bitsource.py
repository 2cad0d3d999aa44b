"""Fair-bit suppliers with exact accounting of how many bits were drawn.

Every sampler here pulls single bits from a ``BitSource`` and reads its
entropy cost off ``flips_consumed``: the base class counts each ``_draw``,
while ``SeededSource`` flips in one call and counts by position.
``SeededSource`` takes SplitMix64's steps with 0x9E3779B97F4A7C15,
0xBF58476D1ED4CE4B and 0x94D049BB133111EB; splitmix64.c has
0xBF58476D1CE4E5B9 second, so the streams are not its.
"""

import abc

_MASK64 = (1 << 64) - 1


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


class SeededSource(BitSource):
    """Deterministic pseudorandom bit stream.

    Generator: ``_splitmix64`` with 0x9E3779B97F4A7C15, 0xBF58476D1ED4CE4B
    and 0x94D049BB133111EB over a 64-bit state set to ``seed`` mod 2**64.
    Words go out least significant bit first; ``_word`` keeps the unread
    bits below a stop bit and ``_words`` counts the words drawn.  Seed 0
    starts 0x5b3408bf8c8e5572, bit 0 first.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64
        self._word = 1
        self._words = 0

    def next_bit(self) -> int:
        word = self._word
        if word == 1:
            self._state, word = _splitmix64(self._state)
            word |= 1 << 64
            self._words += 1
        self._word = word >> 1
        return word & 1

    _draw = next_bit
    flips_consumed = property(lambda self: 64 * self._words - self._word.bit_length() + 1)
