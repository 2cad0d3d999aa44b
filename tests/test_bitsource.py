import pytest
from hypothesis import given
from hypothesis import strategies as st

from coindice import ReplaySource, SeededSource, SourceExhausted


def test_replay_returns_bits_in_order_then_exhausts():
    source = ReplaySource([1, 0, 1])
    assert [source.next_bit(), source.next_bit(), source.next_bit()] == [1, 0, 1]
    with pytest.raises(SourceExhausted):
        source.next_bit()


def test_replay_rejects_non_bits():
    with pytest.raises(ValueError):
        ReplaySource([0, 2])


def test_replay_rejects_non_int_bits():
    # 1.0 == 1, so a value check alone would let roll() return float outcomes
    with pytest.raises(ValueError):
        ReplaySource([1.0])


def test_exhaustion_does_not_count_as_a_flip():
    source = ReplaySource([1])
    source.next_bit()
    with pytest.raises(SourceExhausted):
        source.next_bit()
    assert source.flips_consumed == 1


def test_remaining_tracks_cursor():
    source = ReplaySource([0, 0, 1])
    assert source.remaining == 3
    source.next_bit()
    assert source.remaining == 2


@given(st.lists(st.integers(0, 1), max_size=200))
def test_counter_equals_number_of_draws(bits):
    source = ReplaySource(bits)
    for expected in range(1, len(bits) + 1):
        source.next_bit()
        assert source.flips_consumed == expected


def test_same_seed_reproduces_identical_stream():
    a = SeededSource(0)
    b = SeededSource(0)
    assert [a.next_bit() for _ in range(64)] == [b.next_bit() for _ in range(64)]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 2**64])
def test_seeded_stream_deterministic_across_instances(seed):
    first = [SeededSource(seed).next_bit() for _ in range(10)]
    again = [SeededSource(seed).next_bit() for _ in range(10)]
    assert first == again


def test_nearby_seeds_diverge_quickly():
    a = SeededSource(1)
    b = SeededSource(2)
    assert [a.next_bit() for _ in range(128)] != [b.next_bit() for _ in range(128)]


def test_bit_mean_is_fair():
    # law of large numbers at 1e6 draws; 0.003 is about 6 sigma
    source = SeededSource(7)
    total = sum(source.next_bit() for _ in range(10**6))
    assert 0.497 <= total / 10**6 <= 0.503
    assert source.flips_consumed == 10**6
