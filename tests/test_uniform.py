from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coindice import ProbabilityVector, SeededSource, enumerate_uniform, roll, roll_many, sample
from coindice import discrete
from coindice.discrete import RecyclerState, _die
from conftest import ReplaySource, SourceExhausted, walk


def test_one_sided_die_needs_no_flips():
    result = roll(1, ReplaySource([]))
    assert result.outcome == 1
    assert result.flips == 0


def test_invalid_sides_rejected():
    with pytest.raises(ValueError):
        roll(0, ReplaySource([]))
    with pytest.raises(TypeError):
        roll(2.0, ReplaySource([]))


def test_five_sided_all_zero_bits_accepts_one():
    result = roll(5, ReplaySource([0, 0, 0]), trace=True)
    assert result.outcome == 1
    assert result.flips == 3
    assert result.trace == [
        RecyclerState(1, 1),
        RecyclerState(1, 2),
        RecyclerState(1, 4),
        RecyclerState(1, 8),
        RecyclerState(1, 5),
    ]


def test_five_sided_all_one_bits_recycles():
    # x reaches 8 > 5 after three flips, leaving a recycled 3-sided state
    with pytest.raises(SourceExhausted):
        roll(5, ReplaySource([1, 1, 1]))
    result = roll(5, ReplaySource([1, 1, 1, 0]), trace=True)
    assert RecyclerState(3, 3) in result.trace
    assert result.outcome == 3
    assert result.flips == 4


def test_five_sided_four_one_bits_restarts_then_exhausts():
    source = ReplaySource([1, 1, 1, 1])
    with pytest.raises(SourceExhausted):
        roll(5, source, trace=True)
    assert source.flips_consumed == 4
    # the restart state is visible through the exhaustive state tree
    states, _ = walk(_die(5), 4)
    assert states["111"] == RecyclerState(3, 3)
    assert states["1111"] == RecyclerState(1, 1)


def test_four_sided_bits_one_zero():
    # confirmed against the enumeration oracle: history "10" lands on 2
    result = roll(4, ReplaySource([1, 0]))
    assert result.outcome == 2
    assert result.flips == 2
    assert enumerate_uniform(4, 2).leaf_histories["10"] == 2


def test_two_sided_die_is_one_flip_per_roll():
    rolls = roll_many(2, 3, ReplaySource([0, 1, 1]))
    assert [r.outcome for r in rolls] == [1, 2, 2]
    assert [r.flips for r in rolls] == [1, 1, 1]


def test_roll_many_one_sided():
    rolls = roll_many(1, 10, ReplaySource([]))
    assert [r.outcome for r in rolls] == [1] * 10
    assert sum(r.flips for r in rolls) == 0


def test_roll_many_checks_sides_once_and_rolls_as_roll_does(monkeypatch):
    source = SeededSource(5)
    expected = [roll(7, source, trace=True) for _ in range(60)]
    calls = []
    monkeypatch.setattr(discrete, "_check_sides", calls.append)
    assert roll_many(7, 60, SeededSource(5), trace=True) == expected
    assert calls == [7]


@pytest.mark.parametrize("count", [0, 3])
def test_roll_many_rejects_bad_sides_before_rolling(count):
    with pytest.raises(ValueError, match="sides must be >= 1"):
        roll_many(0, count, ReplaySource([]))


def test_roll_many_rejects_a_negative_count():
    with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
        roll_many(6, -1, ReplaySource([]))


def test_roll_many_total_flips_match_source_counter():
    source = SeededSource(3)
    rolls = roll_many(7, 500, source)
    assert sum(r.flips for r in rolls) == source.flips_consumed


def test_empirical_frequencies_five_sided():
    source = SeededSource(11)
    counts = [0] * 5
    for r in roll_many(5, 100_000, source):
        counts[r.outcome - 1] += 1
    for c in counts:
        assert abs(c / 100_000 - 0.2) < 0.01  # ~3 sigma is 0.0038


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_replay_fidelity(n, seed):
    # the same bit script always produces the same outcome and flip count
    probe = SeededSource(seed)
    bits = [probe.next_bit() for _ in range(64)]
    first = roll(n, ReplaySource(bits))
    second = roll(n, ReplaySource(bits))
    assert (first.outcome, first.flips) == (second.outcome, second.flips)
    assert 1 <= first.outcome <= n


@given(st.integers(2, 32), st.integers(0, 2**32 - 1))
def test_state_bounds_hold_along_the_trace(n, seed):
    # doubling keeps m <= 2n-1 until resolution pulls it back to <= n
    result = roll(n, SeededSource(seed), trace=True)
    for x, m in result.trace:
        assert 1 <= x <= m
        assert m <= 2 * n - 1
    assert result.trace[-1] == RecyclerState(result.outcome, n)


@given(st.integers(2, 32), st.integers(0, 2**32 - 1))
def test_flips_equal_loop_iterations(n, seed):
    source = SeededSource(seed)
    before = source.flips_consumed
    result = roll(n, source)
    assert result.flips == source.flips_consumed - before


@pytest.mark.parametrize("n", list(range(1, 65)) + [257, 997])
def test_roll_is_sample_of_the_uniform_distribution(n):
    # roll is the arithmetic fast path of sample(1/n x n): same outcomes,
    # flip counts and traces on the same bit stream
    p = ProbabilityVector([Fraction(1, n)] * n)
    for seed in (0, 1, 2):
        for trace in (False, True):
            rolls = roll_many(n, 40, SeededSource(seed), trace=trace)
            source = SeededSource(seed)
            samples = [sample(p, source, trace=trace) for _ in range(40)]
            assert rolls == samples


def _reference_roll(n, source, trace=False):
    """The roller as it was before it tested each flip once: after every
    doubling it checks m >= n and resolves there.  Kept as the reference."""
    next_bit = source.next_bit
    x, m = 1, 1
    flips = 0
    states = [RecyclerState(1, 1)] if trace else None
    while m < n:
        x += next_bit() * m
        flips += 1
        m *= 2
        if states is not None:
            states.append(RecyclerState(x, m))
        if m >= n:
            if x <= n:
                m = n
            else:
                x -= n
                m -= n
            if states is not None and states[-1] != (x, m):
                states.append(RecyclerState(x, m))
    return discrete.TracedRoll(x, flips, states)


_REFERENCE_SIDES = list(range(1, 301)) + [2**40 + 15, 2**64 + 1]


@pytest.mark.parametrize("trace", [False, True])
def test_roll_matches_the_reference_loop(trace):
    for n in _REFERENCE_SIDES:
        source, reference = SeededSource(n), SeededSource(n)
        for _ in range(20):
            assert discrete._roll(n, source, trace) == _reference_roll(n, reference, trace)
        assert source.flips_consumed == reference.flips_consumed


@pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 100, 2**40 + 15, 2**64 + 1])
def test_roll_runs_dry_at_the_reference_bit(n):
    # a replay cut at every length inside one roll raises from both loops
    # after the same bits, and counts only the bits handed out
    probe = SeededSource(n)
    bits = [probe.next_bit() for _ in range(4 * n.bit_length() + 8)]
    for cut in range(len(bits) + 1):
        outcomes = []
        for roller in (discrete._roll, _reference_roll):
            source = ReplaySource(bits[:cut])
            try:
                outcomes.append(roller(n, source, True))
            except SourceExhausted:
                outcomes.append(None)
            outcomes.append(source.flips_consumed)
        assert outcomes[:2] == outcomes[2:]
        if outcomes[0] is None:
            assert outcomes[1] == cut
