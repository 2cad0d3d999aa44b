"""The reference the paper compares against: naive rejection sampling.

Draw ceil(log2 n) bits, keep the value if it is below n, otherwise throw
every one of those bits away and start again.  It runs on the dice sizes
in the traced run only, from the same SeededSource the roller uses.
"""

from time import perf_counter

BASELINE_ROLLS = 2000  # per die size


def naive_roll(n: int, source) -> int:
    width = (n - 1).bit_length()
    while True:
        value = 0
        for _ in range(width):
            value = (value << 1) | source.next_bit()
        if value < n:
            return value + 1


def run_baseline(seeded_source_cls, sides, seed: int) -> dict:
    """Rolls per second and flips per roll of naive rejection, summed
    over ``sides``; raises ValueError if an outcome leaves 1..n."""
    rolls = flips = 0
    elapsed = 0.0
    for index, n in enumerate(sides):
        source = seeded_source_cls(seed + index)
        start = perf_counter()
        outcomes = [naive_roll(n, source) for _ in range(BASELINE_ROLLS)]
        elapsed += perf_counter() - start
        if min(outcomes) < 1 or max(outcomes) > n:
            raise ValueError(f"naive rejection rolled outside 1..{n}")
        rolls += BASELINE_ROLLS
        flips += source.flips_consumed
    return {"naive_samples_per_s": rolls / elapsed, "naive_flips_per_sample": flips / rolls}
