"""Sampling from arbitrary exact-rational distributions.

The sampler generalises the fair-die roller: at flip j the outcomes
whose probability has a 1 at position j of its binary expansion form the
acceptance set for that level, and the recycled pair (x, m) selects
uniformly among them.  Probabilities are exact ``fractions.Fraction``
values throughout; expansion bits are always recomputed from the
original probability (random access, no cumulative doubling), so there
is no drift and no rounding anywhere.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .bitsource import BitSource
from .uniform import RecyclerState, TracedRoll


class InvalidDistribution(Exception):
    """The input does not describe an exact probability distribution."""


_FRACTION_TOKEN = re.compile(r"^[+-]?\d+(/\d+)?$")


def _as_exact_fraction(value) -> Fraction:
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
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise InvalidDistribution(f"unsupported probability type {type(value).__name__}")


class ProbabilityVector:
    """Ordered exact probabilities for outcomes 1..K, summing to exactly 1."""

    def __init__(self, entries) -> None:
        probs = tuple(_as_exact_fraction(e) for e in entries)
        if not probs:
            raise InvalidDistribution("distribution needs at least one outcome")
        for i, q in enumerate(probs, start=1):
            if q < 0:
                raise InvalidDistribution(f"outcome {i} has negative probability {q}")
        total = sum(probs)
        if total != 1:
            raise InvalidDistribution(f"probabilities sum to {total}, expected exactly 1")
        self.probs = probs

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProbabilityVector) and self.probs == other.probs

    def __repr__(self) -> str:
        return f"ProbabilityVector({', '.join(str(q) for q in self.probs)})"

    def prob(self, outcome: int) -> Fraction:
        """Probability of the 1-indexed outcome."""
        return self.probs[outcome - 1]

    def certain_outcome(self) -> int | None:
        """The outcome carrying all mass, if there is one."""
        for i, q in enumerate(self.probs, start=1):
            if q == 1:
                return i
        return None


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
        except json.JSONDecodeError as exc:
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


def expansion_bit(q: Fraction, j: int) -> int:
    """Bit j of the binary expansion of q in [0, 1].

    Computed as floor(2^j q) - 2 floor(2^(j-1) q), which picks the finite
    expansion whenever one exists (so bit 0 of 1 is 1 and all later bits
    are 0).
    """
    if j < 0:
        raise ValueError(f"bit index must be >= 0, got {j}")
    num, den = q.numerator, q.denominator
    hi = (num << j) // den
    lo = (num << (j - 1)) // den if j >= 1 else num // (2 * den)
    return hi - 2 * lo


@dataclass(frozen=True)
class LevelState:
    """Residual probabilities after the first ``level`` expansion bits."""

    residual_probs: tuple[Fraction, ...]
    level: int


def level_state(p: ProbabilityVector, level: int) -> LevelState:
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    residuals = tuple(
        Fraction((q.numerator << level) % q.denominator, q.denominator)
        for q in p.probs
    )
    return LevelState(residuals, level)


def acceptance_set(p: ProbabilityVector, level: int) -> tuple[int, ...]:
    """Outcomes whose expansion has a 1 bit at ``level``, ascending."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return tuple(
        i for i, q in enumerate(p.probs, start=1) if expansion_bit(q, level) == 1
    )


def sample(p: ProbabilityVector, source: BitSource, trace: bool = False) -> TracedRoll:
    """Draw one outcome with exactly the probabilities in ``p``.

    One flip per level: the recycled pair (x, m) doubles, and if it
    covers that level's acceptance set the roll resolves to the x-th
    smallest member; otherwise the leftover uniformity carries to the
    next level.  An empty acceptance level just flips again.
    """
    certain = p.certain_outcome()
    if certain is not None:
        return TracedRoll(certain, 0, [RecyclerState(1, 1)] if trace else None)

    x, m = 1, 1
    level = 0
    states = [RecyclerState(1, 1)] if trace else None
    while True:
        level += 1
        accept = acceptance_set(p, level)
        k = len(accept)
        bit = source.next_bit()
        x += bit * m
        m *= 2
        if states is not None:
            states.append(RecyclerState(x, m))
        if k and m >= k:
            if x <= k:
                if states is not None and states[-1] != (x, k):
                    states.append(RecyclerState(x, k))
                return TracedRoll(accept[x - 1], level, states)
            x -= k
            m -= k
            if states is not None:
                states.append(RecyclerState(x, m))
