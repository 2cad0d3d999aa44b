"""Fair-bit suppliers with exact accounting of how many bits were drawn.

Every sampler in this package pulls single bits from a ``BitSource``.  The
source counts each successful draw, so the entropy cost of any run can be
read off ``flips_consumed`` afterwards.  Two backends are provided: a
scripted ``ReplaySource`` used by the enumeration machinery and the tests,
and a seeded ``SeededSource`` for actual random sampling.
"""

import abc

# A bit is a plain int restricted to {0, 1}.
Bit = int

_MASK64 = (1 << 64) - 1


class SourceExhausted(Exception):
    """A scripted source ran out of bits.

    This is a signal, not a failure: the exhaustive enumerator uses it to
    detect paths that are still live at its depth bound.
    """


class BitSource(abc.ABC):
    """Supplier of fair bits.  Instances are single-owner: never share one
    source between concurrent consumers."""

    def __init__(self) -> None:
        self.flips_consumed = 0

    @abc.abstractmethod
    def _draw(self) -> Bit:
        """Produce the next bit, or raise SourceExhausted."""

    def next_bit(self) -> Bit:
        bit = self._draw()
        # counted only after a successful draw, so exhaustion leaves the
        # tally equal to the bits actually handed out
        self.flips_consumed += 1
        return bit


class ReplaySource(BitSource):
    """Plays back a fixed bit sequence, then raises SourceExhausted."""

    def __init__(self, bits) -> None:
        super().__init__()
        self._bits = list(bits)
        for b in self._bits:
            if not isinstance(b, int) or b not in (0, 1):
                raise ValueError(f"bit sequence may only contain 0 and 1, got {b!r}")
        self._cursor = 0

    def _draw(self) -> Bit:
        if self._cursor >= len(self._bits):
            raise SourceExhausted(f"replay of {len(self._bits)} bits exhausted")
        bit = self._bits[self._cursor]
        self._cursor += 1
        return bit

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._cursor


def _splitmix64(state: int) -> tuple[int, int]:
    # SplitMix64 step; see https://prng.di.unimi.it/splitmix64.c
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1ED4CE4B) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class SeededSource(BitSource):
    """Deterministic pseudorandom bit stream.

    Generator: SplitMix64 over a 64-bit state initialised to ``seed``
    (taken mod 2**64).  Each 64-bit output word is served one bit at a
    time, least-significant bit first.  The same seed always reproduces
    the identical bit stream.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._state = seed & _MASK64
        self._word = 0
        self._left = 0

    def _draw(self) -> Bit:
        if self._left == 0:
            self._state, self._word = _splitmix64(self._state)
            self._left = 64
        bit = self._word & 1
        self._word >>= 1
        self._left -= 1
        return bit
