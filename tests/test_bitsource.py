import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coindice import BitSource, SeededSource, roll_many
from coindice.bitsource import _splitmix64
from reference import ReplaySource, SourceExhausted


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


def _words(source, count):
    """The next ``count`` 64-bit words of ``source``, each read from bit 0 up."""
    return [sum(source.next_bit() << i for i in range(64)) for _ in range(count)]


def test_seed_zero_known_answer():
    # the generator's own constants (see the bitsource docstring), not
    # splitmix64.c's, whose seed 0 starts 0xe220a8397b1dcdaf; the second
    # word is read across the first refill
    source = SeededSource(0)
    assert _words(source, 2) == [0x5B3408BF8C8E5572, 0x1BAEF75D34A0C698]
    assert source.flips_consumed == 128


def test_seed_is_taken_mod_2_64():
    assert _words(SeededSource(2**64 + 5), 3) == _words(SeededSource(5), 3)


def test_seeded_source_keeps_one_word_and_its_state():
    # the cell (state, words drawn, current word's bits) and the stream over it
    source = SeededSource(3)
    source.next_bit()
    assert sorted(vars(source)) == ["_cell", "next_bit"]


def test_a_dropped_source_is_freed_without_the_cycle_collector():
    source = SeededSource(3)
    [source.next_bit() for _ in range(100)]
    ref = weakref.ref(source)
    gc.disable()
    try:
        del source
        assert ref() is None
    finally:
        gc.enable()


_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda source: pickle.loads(pickle.dumps(source))}


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("drawn", [0, 1, 63, 64, 65])
def test_a_copy_resumes_at_the_same_position_on_its_own(how, drawn):
    source = SeededSource(17)
    [source.next_bit() for _ in range(drawn)]
    twin = _COPIES[how](source)
    assert twin.flips_consumed == drawn
    assert [twin.next_bit() for _ in range(70)] == _reference_bits(17, drawn + 70)[drawn:]
    assert source.flips_consumed == drawn
    assert [source.next_bit() for _ in range(5)] == _reference_bits(17, drawn + 5)[drawn:]
    assert twin.flips_consumed == drawn + 70


@pytest.mark.parametrize("source", [SeededSource(3), ReplaySource([1, 0])])
def test_position_counts_are_read_only(source):
    source.next_bit()
    with pytest.raises(AttributeError):
        source.flips_consumed = 0
    assert source.flips_consumed == 1


def _reference_bits(seed, count):
    """The first ``count`` bits of seed's stream, taken one at a time off
    each generator word, least significant bit first."""
    state, bits = seed % 2**64, []
    while len(bits) < count:
        state, word = _splitmix64(state)
        bits += [word >> i & 1 for i in range(64)]
    return bits[:count]


@given(st.integers(0, 2**65), st.integers(0, 300))
@example(0, 63)
@example(0, 64)
@example(0, 65)
@example(2**64 - 1, 128)
@example(1, 129)
def test_bits_and_count_match_a_bit_at_a_time_reference(seed, count):
    source = SeededSource(seed)
    assert source.flips_consumed == 0
    bits = []
    for drawn in range(1, count + 1):
        bits.append(source.next_bit())
        assert source.flips_consumed == drawn
    assert bits == _reference_bits(seed, count)


def test_a_next_bit_bound_before_a_roll_reads_the_stream_after_it():
    source = SeededSource(11)
    bound = source.next_bit
    roll_many(6, 10, source)
    used = source.flips_consumed
    bits = [bound() for _ in range(40)] + [source.next_bit() for _ in range(40)]
    assert bits == _reference_bits(11, used + 80)[used:]
    assert source.flips_consumed == used + 80


class _DrawOnly(BitSource):
    """Implements only ``_draw``, delegating to an inner source, as a
    wrapper that times each draw does; the base class counts its bits."""

    def __init__(self, inner) -> None:
        super().__init__()
        self.inner = inner

    def _draw(self):
        return self.inner.next_bit()


@pytest.mark.parametrize("n", [1, 2, 6, 1000, 2**40 + 15])
def test_a_draw_only_source_counts_the_same_bits_and_rolls(n):
    direct = SeededSource(9)
    wrapped = _DrawOnly(SeededSource(9))
    assert roll_many(n, 200, wrapped) == roll_many(n, 200, direct)
    assert wrapped.flips_consumed == wrapped.inner.flips_consumed == direct.flips_consumed


def test_a_draw_only_source_does_not_count_an_exhausted_draw():
    wrapped = _DrawOnly(ReplaySource([1, 0]))
    assert [wrapped.next_bit(), wrapped.next_bit()] == [1, 0]
    with pytest.raises(SourceExhausted):
        wrapped.next_bit()
    assert wrapped.flips_consumed == wrapped.inner.flips_consumed == 2
