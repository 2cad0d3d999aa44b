from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from coindice import ProbabilityVector, enumerate_uniform, roll, sample
from coindice import ddg
from coindice.ddg import _expand
from coindice.discrete import _die
from coindice.discrete import RecyclerState
from conftest import ReplaySource, SourceExhausted, level_multisets, walk

# Per-flip state multisets of the five-sided roller, derived by hand from
# the doubling/accept/recycle rules and frozen here.
FIVE_SIDED_LEVELS = {
    0: {(1, 1): 1},
    1: {(1, 2): 1, (2, 2): 1},
    2: {(1, 4): 1, (3, 4): 1, (2, 4): 1, (4, 4): 1},
    3: {
        (1, 5): 1,
        (5, 5): 1,
        (3, 5): 1,
        (2, 3): 1,
        (2, 5): 1,
        (1, 3): 1,
        (4, 5): 1,
        (3, 3): 1,
    },
    4: {(2, 5): 1, (5, 5): 1, (1, 5): 1, (4, 5): 1, (3, 5): 1, (1, 1): 1},
}


def test_five_sided_state_tree_spot_paths():
    states = walk(_die(5), 4)[0]
    assert states[""] == RecyclerState(1, 1)
    assert states["0"] == RecyclerState(1, 2)
    assert states["11"] == RecyclerState(4, 4)
    assert states["111"] == RecyclerState(3, 3)  # (8, 8) recycled
    assert states["110"] == RecyclerState(4, 5)  # (4, 8) accepted


def test_five_sided_level_multisets_match_known_layout():
    grouped = level_multisets(walk(_die(5), 4)[0])
    for level, expected in FIVE_SIDED_LEVELS.items():
        assert grouped[level] == Counter(expected), level


def test_five_sided_restart_levels_repeat_the_top():
    grouped = level_multisets(walk(_die(5), 6)[0])
    assert grouped[5] == grouped[1]
    assert grouped[6] == grouped[2]


def test_five_sided_pre_resolution_states():
    # the doubled states before accept/recycle fire: all of {1..8} x {8}
    # after flip three, then the six-sided row after flip four
    states = walk(_die(5), 4)[0]
    doubled_three = Counter()
    doubled_four = Counter()
    for history, state in states.items():
        if len(history) in (3, 4):
            parent = states[history[:-1]]
            bit = int(history[-1])
            pre = (parent.x + bit * parent.m, 2 * parent.m)
            (doubled_three if len(history) == 3 else doubled_four)[pre] += 1
    assert doubled_three == Counter({(i, 8): 1 for i in range(1, 9)})
    assert doubled_four == Counter(
        {(2, 6): 1, (5, 6): 1, (1, 6): 1, (4, 6): 1, (3, 6): 1, (6, 6): 1}
    )


def test_one_sided_die_is_an_immediate_leaf():
    states = walk(_die(1), 3)[0]
    assert states == {"": RecyclerState(1, 1)}
    result = enumerate_uniform(1, 3)
    assert result.outcome_mass == {1: Fraction(1)}
    assert result.flip_mass == {0: Fraction(1)}


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_is_rejected(depth):
    # without the check, depth 0 would report the whole mass as live
    with pytest.raises(ValueError) as exc:
        enumerate_uniform(5, depth)
    assert str(exc.value) == f"depth must be >= 1, got {depth}"


def test_walk_budget_admits_depth_2895_of_thirds_and_refuses_2896():
    # one history runs per level, so levels 1..j hold j(j + 1) characters:
    # 2895 * 2896 <= 2^23 < 2896 * 2897
    thirds = ProbabilityVector(["1/3", "2/3"])._runs
    assert len(list(_expand(thirds, 2895))) == 2896
    with pytest.raises(ValueError) as exc:
        _expand(thirds, 2896)
    assert str(exc.value) == (
        "trie walk to depth 2896 passes the walk budget of 8388608 history characters at level 2896"
    )


def test_a_walk_of_exactly_the_budget_is_admitted(monkeypatch):
    # thirds to depth j hold j(j + 1) history characters: 12 at depth 3
    thirds = ProbabilityVector(["1/3", "2/3"])._runs
    monkeypatch.setattr(ddg, "WALK_BUDGET", 12)
    assert len(list(_expand(thirds, 3))) == 4
    with pytest.raises(ValueError, match="walk budget of 12 history characters at level 4$"):
        _expand(thirds, 4)


def test_two_sided_die_depth_one():
    result = enumerate_uniform(2, 1)
    assert result.outcome_mass == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert result.live_mass == 0


def test_five_sided_depth_four_leaves_and_live_mass():
    result = enumerate_uniform(5, 4)
    assert result.leaf_histories["000"] == 1
    assert result.leaf_histories["001"] == 5
    by_level = Counter(len(h) for h in result.leaf_histories)
    assert by_level == {3: 5, 4: 5}
    assert result.live_mass == Fraction(1, 16)


def test_five_sided_depth_eight_masses_equal():
    result = enumerate_uniform(5, 8)
    assert result.live_mass == Fraction(1, 256)
    assert set(result.outcome_mass.values()) == {Fraction(51, 256)}


@pytest.mark.parametrize("n", range(1, 11))
def test_uniformity_small_dice(n):
    result = enumerate_uniform(n, 16)
    assert len(result.outcome_mass) == n
    assert len(set(result.outcome_mass.values())) == 1
    assert result.terminated_mass() + result.live_mass == 1


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_conditional_uniformity_within_every_m_group(n):
    # at each depth, states sharing m must spread their path mass equally
    # over all x in {1..m}
    depth = 12
    states = walk(_die(n), depth)[0]
    for level in range(depth + 1):
        groups: dict[int, dict[int, Fraction]] = defaultdict(dict)
        for history, state in states.items():
            if len(history) == level:
                mass = Fraction(1, 1 << level)
                group = groups[state.m]
                group[state.x] = group.get(state.x, Fraction(0)) + mass
        for m, masses in groups.items():
            assert set(masses) == set(range(1, m + 1)), (n, level, m)
            assert len(set(masses.values())) == 1, (n, level, m)


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_live_mass_decays_geometrically(n):
    # each window long enough to double any state past n gives at least
    # one acceptance chance of probability >= 1/(2n)
    window = (2 * n - 1).bit_length()
    base = enumerate_uniform(n, 8).live_mass
    for k in (1, 2):
        deeper = enumerate_uniform(n, 8 + k * window).live_mass
        assert deeper <= base * Fraction(2 * n - 1, 2 * n) ** k


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_oracle_agrees_with_replayed_rolls(n):
    # every oracle leaf and live path reproduces exactly under roll()
    depth = 10
    result = enumerate_uniform(n, depth)
    for history, outcome in result.leaf_histories.items():
        bits = [int(b) for b in history]
        replay = ReplaySource(bits)
        traced = roll(n, replay)
        assert traced.outcome == outcome
        assert traced.flips == len(bits) == replay.flips_consumed


def test_discrete_state_tree_matches_uniform_structure():
    # a uniform dyadic distribution drives the same acceptance layout as
    # the plain four-sided roller
    p = ProbabilityVector(["1/4"] * 4)
    states, result = walk(p._runs, 2)
    assert result.outcome_mass == {i: Fraction(1, 4) for i in (1, 2, 3, 4)}
    assert result.flip_mass == {2: Fraction(1)}
    assert states["01"] == RecyclerState(3, 4)  # x = 1 + 0*1, then + 1*2


@pytest.mark.parametrize(
    "probs", [["3/8", "1/2", "1/8"], ["1/3", "2/3"], ["1/5", "2/5", "2/5"]]
)
def test_discrete_conditional_uniformity_within_m_groups(probs):
    # the recycled pair stays conditionally uniform for loaded dice too
    p = ProbabilityVector(probs)
    depth = 10
    states = walk(p._runs, depth)[0]
    for level in range(depth + 1):
        groups: dict[int, dict[int, Fraction]] = defaultdict(dict)
        for history, state in states.items():
            if len(history) == level:
                group = groups[state.m]
                group[state.x] = group.get(state.x, Fraction(0)) + Fraction(
                    1, 1 << level
                )
        for m, masses in groups.items():
            assert set(masses) == set(range(1, m + 1)), (probs, level, m)
            assert len(set(masses.values())) == 1, (probs, level, m)


def test_discrete_oracle_agrees_with_replayed_samples():
    p = ProbabilityVector(["3/8", "1/2", "1/8"])
    result = walk(p._runs, 3)[1]
    for history, outcome in result.leaf_histories.items():
        bits = [int(b) for b in history]
        traced = sample(p, ReplaySource(bits))
        assert traced.outcome == outcome
        assert traced.flips == len(bits)
    # live prefixes really are still running
    states, deeper = walk(ProbabilityVector(["1/3", "2/3"])._runs, 5)
    live = [h for h in states if len(h) == 5 and h not in deeper.leaf_histories]
    for history in live:
        with pytest.raises(SourceExhausted):
            sample(ProbabilityVector(["1/3", "2/3"]), ReplaySource([int(b) for b in history]))
