import copy
import pickle
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coindice import (
    InvalidDistribution,
    ProbabilityVector,
    SeededSource,
    build_from_discrete,
    check_optimal,
    discrete,
    enumerate_uniform,
    parse_distribution,
    roll,
    roll_many,
    sample,
)
from coindice.analysis import _entropy
from coindice.ddg import DdgTree, _flip_distribution, expansion_bit
from coindice.discrete import TracedRoll, _die, _levels
from conftest import (
    HUGE_DIE,
    TWIN_HUGE_RUNS,
    Unwalkable,
    dyadic_suite,
    split_shallowest_leaf,
    uniform_probs,
    walk,
)
from reference import (
    RecyclerState,
    ReplaySource,
    SourceExhausted,
    acceptance_set,
    entry_record,
    history_bits,
    reference_roll,
    reference_sample,
)


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


EIGHTHS = ProbabilityVector(["3/8", "1/2", "1/8"])
THIRDS = ProbabilityVector(["1/3", "2/3"])
UNIFORM_997 = uniform_probs(997)


def rule_levels(record, depth: int) -> list[tuple[int, ...]]:
    """The acceptance sets of levels 0..depth of a compiled record: each
    level's accepted runs flattened."""
    levels = []
    for k, accepted in islice(_levels(record), depth + 1):
        levels.append(tuple(i for first, length in accepted for i in range(first, first + length)))
        assert k == len(levels[-1])
    return levels


def rule_depth(p: ProbabilityVector) -> int:
    return 3 * max(q.denominator for q in p.probs).bit_length()


def assert_live_m_is_residual_mass(record, depth: int = 24) -> None:
    """Every live m the trie walk of a compiled record records after level
    j is the sum over runs of length * (num * 2^j mod den) / den, never
    negative, so doubling m always covers the next acceptance set."""
    states, result = walk(record, depth)
    nums, dens, spans = record
    residual = [
        sum(
            Fraction(length * ((num << j) % den), den)
            for num, den, (_, length) in zip(nums, dens, spans)
        )
        for j in range(depth + 1)
    ]
    for history, state in states.items():
        if history not in result.leaf_histories:
            assert state.m == residual[len(history)], (history, state)


nonnegative_weights = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=60), min_size=1, max_size=7
).filter(lambda ws: sum(ws) > 0)

# (weight, run length) pairs: a run of k > 1 beside others, zero weights included
weighted_runs = st.lists(
    st.tuples(
        st.just(Fraction(0)) | st.fractions(min_value=0, max_value=1, max_denominator=60),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=2,
    max_size=6,
).filter(lambda rs: sum(w * k for w, k in rs) > 0 and any(k > 1 for _, k in rs))


class TestProbabilityVector:
    def test_requires_exact_unit_sum(self):
        for entries, total in [(["1/2", "1/3"], "5/6"), ([Fraction(1, 7)] * 6, "6/7")]:
            with pytest.raises(InvalidDistribution) as exc:
                ProbabilityVector(entries)
            assert str(exc.value) == f"probabilities sum to {total}, expected exactly 1"

    def test_rejects_negative_entries(self):
        # the negative entry is named even when the sum is wrong too
        for entries in (["3/2", "-1/2"], ["1/4", "-1/2"]):
            with pytest.raises(InvalidDistribution) as exc:
                ProbabilityVector(entries)
            assert str(exc.value) == "outcome 2 has negative probability -1/2"

    def test_a_negative_run_is_named_by_its_first_outcome(self):
        with pytest.raises(InvalidDistribution) as exc:
            ProbabilityVector(["1/4", "1/4", "-1/8", "-1/8", "-1/8", "7/8"])
        assert str(exc.value) == "outcome 3 has negative probability -1/8"

    def test_build_adds_one_fraction_per_run(self, monkeypatch):
        added = []
        for name in ("__add__", "__radd__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda a, b, op=op: added.append(b) or op(a, b))
        p = uniform_probs(100003)
        nums, _, _ = p._runs
        assert len(nums) == 1
        assert len(added) <= len(nums)

    def test_fraction_subclass_entries_become_plain_fractions(self):
        class Probability(Fraction):
            pass

        p = ProbabilityVector([Probability(1, 4), Probability(3, 4)])
        assert [type(q) for q in p.probs] == [Fraction, Fraction]
        assert p.probs == (Fraction(1, 4), Fraction(3, 4))

    def test_rejects_a_negative_entry_with_more_digits_than_str_prints(self):
        tiny = Fraction(1, 10**5000)
        with pytest.raises(InvalidDistribution, match="negative probability -1/0x"):
            ProbabilityVector([-tiny, 1 + tiny])

    def test_rejects_floats(self):
        with pytest.raises(InvalidDistribution) as exc:
            ProbabilityVector([0.5, 0.5])
        assert str(exc.value) == (
            'floats are not exact: got 0.5; pass a Fraction, an int, or a string like "3/8"'
        )

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistribution) as exc:
            ProbabilityVector([])
        assert str(exc.value) == "distribution needs at least one outcome"

    def test_rejects_a_zero_denominator(self):
        with pytest.raises(InvalidDistribution) as exc:
            ProbabilityVector(["1/0", "1"])
        assert str(exc.value) == "zero denominator in '1/0'"

    def test_rejects_a_token_past_the_digit_limit(self):
        token = "1/" + "7" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ValueError) as parse_error:
            Fraction(token)
        with pytest.raises(InvalidDistribution) as exc:
            ProbabilityVector([token, "1"])
        assert str(exc.value) == str(parse_error.value)

    def test_rejects_unsupported_types(self):
        # bool is an int subclass, but roll(True) and JSON true are rejected too
        for entry, name in [(None, "NoneType"), (1j, "complex"), ([1], "list"), (False, "bool")]:
            with pytest.raises(InvalidDistribution) as exc:
                ProbabilityVector([entry, "1"])
            assert str(exc.value) == f"unsupported probability type {name}"

    def test_zero_entries_are_allowed(self):
        p = ProbabilityVector(["0", "1"])
        assert rule_levels(p._runs, 0) == [acceptance_set(p, 0)] == [(2,)]

    def test_repr_prints_parts_as_str_does(self):
        assert repr(EIGHTHS) == "ProbabilityVector(3/8, 1/2, 1/8)"
        assert repr(ProbabilityVector(["0", "1", "0"])) == "ProbabilityVector(0, 1, 0)"

    def test_repr_prints_parts_past_the_digit_limit_in_hex(self):
        tiny = Fraction(1, 10**5000)
        text = repr(ProbabilityVector([tiny, 1 - tiny]))
        big = hex(10**5000)
        assert text == f"ProbabilityVector(1/{big}, {hex(10**5000 - 1)}/{big})"

    @pytest.mark.parametrize("limit", [640, 0])
    def test_exact_skips_the_trial_conversion_only_where_it_fits(self, limit):
        # below 2^(3·limit) a part has fewer digits than the limit; past it,
        # _exact answers as a trial str() does, on either side of 10^limit
        def reference(v):
            try:
                str(v)
            except ValueError:
                return hex(v)
            return v

        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for v in [10**640 - 1, 10**640, 2**1920, 2**1920 + 1, 0, 1]:
                for part in (v, -v):
                    assert discrete._exact(part) == reference(part)
        finally:
            sys.set_int_max_str_digits(saved)


    def test_exact_makes_no_trial_conversion_up_to_3_limit_bits(self, monkeypatch):
        # 2^(3·limit) - 1, the widest part the shortcut admits, included
        def trial(v):
            raise AssertionError("trial str() of a part below 2^(3·limit)")

        monkeypatch.setattr(discrete, "str", trial, raising=False)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for v in [2**1920 - 1, 1 - 2**1920, 2**1919]:
                assert discrete._exact(v) == v
        finally:
            sys.set_int_max_str_digits(saved)

    def test_exact_builds_no_power_of_ten_up_to_3_limit_bits(self, monkeypatch):
        # the shortcut spares every part of at most 3·limit bits the 10^limit
        # comparison, which costs a power of ten per printed numerator
        def compared(v):
            raise AssertionError("a part below 2^(3·limit) compared with 10^limit")

        monkeypatch.setattr(discrete, "abs", compared, raising=False)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for v in [2**1920 - 1, 1 - 2**1920, 2**1919]:
                assert discrete._exact(v) == v
            with pytest.raises(AssertionError):
                discrete._exact(2**1920)
        finally:
            sys.set_int_max_str_digits(saved)


class TestParseDistribution:
    def test_comma_fractions(self):
        assert parse_distribution("3/8,1/2,1/8") == EIGHTHS

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1/2]", "bad JSON distribution: "),
            ('[{"num": true, "den": 2}]', "JSON distribution entries must be "),
            ("[[1, 2]]", 'JSON distribution entries must be {"num": <int>, "den": <int>}'),
            ('[{"num": 1, "den": 0}]', "zero denominator in {'num': 1, 'den': 0}"),
        ],
    )
    def test_json_faults_are_invalid_distributions(self, text, message):
        with pytest.raises(InvalidDistribution) as exc:
            parse_distribution(text)
        assert str(exc.value).startswith(message)

    def test_json_num_den(self):
        text = '[{"num": 1, "den": 3}, {"num": 2, "den": 3}]'
        assert parse_distribution(text) == THIRDS

    def test_decimals_rejected_with_format_hint(self):
        with pytest.raises(InvalidDistribution, match="a/b"):
            parse_distribution("0.375,0.5,0.125")

    def test_scientific_notation_rejected(self):
        with pytest.raises(InvalidDistribution):
            parse_distribution("1e-1,9/10")


class TestExpansionBits:
    def test_bit_of_one_is_at_level_zero(self):
        assert expansion_bit(Fraction(1), 0) == 1
        assert all(expansion_bit(Fraction(1), j) == 0 for j in range(1, 8))

    def test_acceptance_levels_for_eighths(self):
        assert acceptance_set(EIGHTHS, 1) == (2,)
        assert acceptance_set(EIGHTHS, 2) == (1,)
        assert acceptance_set(EIGHTHS, 3) == (1, 3)

    def test_acceptance_levels_for_thirds_alternate(self):
        assert [acceptance_set(THIRDS, j) for j in (1, 2, 3, 4)] == [
            (2,),
            (1,),
            (2,),
            (1,),
        ]

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=10**6), st.integers(0, 200)
    )
    @settings(max_examples=300)
    def test_one_division_matches_the_two_division_formula(self, q, j):
        # floor(2^j q) - 2 floor(2^(j-1) q), negative q and q > 1 included
        num, den = q.numerator, q.denominator
        lo = (num << (j - 1)) // den if j >= 1 else num // (2 * den)
        assert expansion_bit(q, j) == (num << j) // den - 2 * lo

    def test_rejects_a_negative_bit_index(self):
        with pytest.raises(ValueError) as exc:
            expansion_bit(Fraction(1, 3), -1)
        assert str(exc.value) == "bit index must be >= 0, got -1"

    @pytest.mark.parametrize("level", [-1, -2])
    def test_acceptance_set_rejects_negative_levels(self, level):
        with pytest.raises(ValueError) as exc:
            acceptance_set(EIGHTHS, level)
        assert str(exc.value) == f"level must be >= 0, got {level}"

    def test_level_state_residuals(self):
        state = level_state(EIGHTHS, 1)
        assert state.residual_probs == (Fraction(3, 4), Fraction(0), Fraction(1, 4))
        assert level_state(EIGHTHS, 3).residual_probs == (
            Fraction(0),
            Fraction(0),
            Fraction(0),
        )

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=60)
    def test_bit_formula_matches_floor_difference(self, level, data):
        # dyadic probabilities with denominator 2^10, up to 8 outcomes
        denom = 1 << 10
        k = data.draw(st.integers(2, 8))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, denom - 1), min_size=k - 1, max_size=k - 1, unique=True
                )
            )
        )
        probs = [Fraction(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom])]
        p = ProbabilityVector(probs)
        expected = tuple(
            i
            for i, q in enumerate(probs, start=1)
            if ((q.numerator << level) // q.denominator)
            - 2 * ((q.numerator << (level - 1)) // q.denominator)
            == 1
        )
        assert acceptance_set(p, level) == expected


class TestSample:
    def test_certain_outcome_costs_nothing(self):
        result = sample(ProbabilityVector(["1"]), ReplaySource([]))
        assert (result.outcome, result.flips) == (1, 0)
        result = sample(ProbabilityVector(["0", "1", "0"]), ReplaySource([]))
        assert (result.outcome, result.flips) == (2, 0)

    def test_half_half_is_a_coin(self):
        result = sample(ProbabilityVector(["1/2", "1/2"]), ReplaySource([1]))
        assert (result.outcome, result.flips) == (2, 1)

    def test_exhaustive_masses_for_eighths(self):
        result = walk(EIGHTHS._runs, 6)[1]
        assert result.outcome_mass == {
            1: Fraction(3, 8),
            2: Fraction(1, 2),
            3: Fraction(1, 8),
        }
        assert result.flip_mass == {
            1: Fraction(1, 2),
            2: Fraction(1, 4),
            3: Fraction(1, 4),
        }
        assert result.live_mass == 0

    def test_thirds_converges_and_counts_leaves_per_level(self):
        result = walk(THIRDS._runs, 20)[1]
        assert abs(result.outcome_mass[1] - Fraction(1, 3)) < Fraction(1, 2**18)
        assert abs(result.outcome_mass[2] - Fraction(2, 3)) < Fraction(1, 2**18)
        for level in range(1, 21):
            leaves = [h for h in result.leaf_histories if len(h) == level]
            assert len(leaves) == len(acceptance_set(THIRDS, level))

    def test_zero_probability_outcome_never_sampled(self):
        p = ProbabilityVector(["1/2", "0", "1/2"])
        result = walk(p._runs, 4)[1]
        assert 2 not in result.outcome_mass
        assert result.outcome_mass[1] == Fraction(1, 2)


class TestDyadicTermination:
    @given(st.data())
    @settings(max_examples=40)
    def test_all_paths_finish_within_the_denominator_depth(self, data):
        power = data.draw(st.integers(1, 6))
        denom = 1 << power
        k = data.draw(st.integers(2, min(denom, 6)))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, denom - 1), min_size=k - 1, max_size=k - 1, unique=True
                )
            )
        )
        probs = [Fraction(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom])]
        p = ProbabilityVector(probs)
        result = walk(p._runs, power + 1)[1]
        assert result.live_mass == 0
        assert result.outcome_mass == {
            i: q for i, q in enumerate(probs, start=1) if q > 0
        }
        assert max(len(h) for h in result.leaf_histories) <= power


class TestMassConservation:
    @pytest.mark.parametrize("p", [EIGHTHS, THIRDS, ProbabilityVector(["1/5", "4/5"])])
    def test_residual_sum_equals_live_node_count(self, p):
        # leftover expansion mass at level j is exactly the number of
        # still-running trie nodes at depth j, scaled by 2^-j
        for depth in range(1, 10):
            residuals = level_state(p, depth).residual_probs
            live = walk(p._runs, depth)[1].live_mass
            assert sum(residuals) == live * (1 << depth)


class TestLevelRule:
    """The residual-doubling rule that feeds ``sample`` and the trie walk
    must reproduce the expansion bits read by random access."""

    @given(nonnegative_weights)
    @settings(max_examples=100)
    def test_residual_rule_matches_expansion_bits(self, weights):
        total = sum(weights)
        p = ProbabilityVector([w / total for w in weights])
        depth = rule_depth(p)
        assert rule_levels(p._runs, depth) == [acceptance_set(p, j) for j in range(depth + 1)]

    @given(weighted_runs)
    @settings(max_examples=100)
    def test_rule_on_mixed_runs_matches_the_expanded_vector(self, weighted):
        total = sum(w * k for w, k in weighted)
        nums, dens, spans, entries = [], [], [], []
        for w, k in weighted:
            q = w / total
            start = len(entries) + 1
            nums.append(q.numerator)
            dens.append(q.denominator)
            spans.append((start, k))
            entries += [q] * k
        p = ProbabilityVector(entries)
        depth = rule_depth(p)
        record = tuple(nums), tuple(dens), tuple(spans)
        assert rule_levels(record, depth) == [acceptance_set(p, j) for j in range(depth + 1)]

    @pytest.mark.parametrize(
        "p",
        [
            THIRDS,
            EIGHTHS,
            UNIFORM_997,
            ProbabilityVector(["0", "1/3", "0", "2/3"]),
            ProbabilityVector(["0", "1", "0"]),
            ProbabilityVector(["1"]),
        ],
        ids=lambda p: f"K{len(p)}",
    )
    def test_residual_rule_on_fixed_targets(self, p):
        depth = rule_depth(p)
        assert rule_levels(p._runs, depth) == [acceptance_set(p, j) for j in range(depth + 1)]

    def test_residual_rule_on_the_dyadic_suite(self):
        for p in dyadic_suite():
            depth = rule_depth(p)
            assert rule_levels(p._runs, depth) == [acceptance_set(p, j) for j in range(depth + 1)]

    def test_die_rule_is_the_rule_of_the_uniform_distribution(self):
        for n in range(1, 301):
            p = uniform_probs(n)
            depth = rule_depth(p)
            assert rule_levels(_die(n), depth) == [acceptance_set(p, j) for j in range(depth + 1)], n

    @given(
        st.one_of(
            weighted_runs.map(lambda weighted: blocks_vector(weighted)._runs),
            st.sampled_from([_die(HUGE_DIE), TWIN_HUGE_RUNS]),
        ),
        st.integers(0, 200),
    )
    @settings(max_examples=100)
    def test_rule_opened_at_any_level_continues_the_sequential_rule(self, record, start):
        sequential = list(islice(_levels(record), start + 40))
        assert list(islice(_levels(record, start), 40)) == sequential[start:]

    @given(weighted_runs)
    @settings(max_examples=100)
    def test_live_m_is_the_residual_mass(self, weighted):
        assert_live_m_is_residual_mass(blocks_vector(weighted)._runs)

    def test_live_m_of_every_die_is_the_residual_mass(self):
        for n in range(1, 201):
            assert_live_m_is_residual_mass(_die(n))


class TestSampleTrace:
    @pytest.mark.parametrize(
        "p",
        [
            EIGHTHS,
            THIRDS,
            ProbabilityVector(["1/3", "1/5", "7/15"]),
            ProbabilityVector(["0", "1/5", "0", "4/5"]),
            ProbabilityVector(["0", "1"]),
            ProbabilityVector([Fraction(1, 7)] * 7),
        ]
        + dyadic_suite()[:5],
    )
    def test_every_leaf_replays_to_its_oracle_state(self, p):
        # sample lands on the walk's leaf, and the reference's trace of the
        # same bits ends on the walk's final state
        depth = 12
        states, result = walk(p._runs, depth)
        leaves = result.leaf_histories
        assert leaves
        for history, outcome in leaves.items():
            bits = history_bits(history)
            result = sample(p, ReplaySource(bits))
            assert (result.outcome, result.flips) == (outcome, len(history))
            reference, trace = reference_sample(p, ReplaySource(bits))
            assert reference == result
            assert trace[0] == (1, 1)
            assert trace[-1] == states[history]
            assert all(1 <= x <= m for x, m in trace)


def compiled_per_entry(p: ProbabilityVector) -> ProbabilityVector:
    ref = copy.copy(p)
    ref._runs = entry_record(p)
    ref._table = ()
    return ref


def blocks_vector(weighted) -> ProbabilityVector:
    """The vector of ``weighted_runs``: each weight repeated k times, normalised."""
    total = sum(w * k for w, k in weighted)
    return ProbabilityVector([w / total for w, k in weighted for _ in range(k)])


def walk_results(p: ProbabilityVector, depth: int):
    """Every output of the layers that read ``p._runs``, in insertion order."""
    streams = []
    for seed in (1, 2, 3):
        source = SeededSource(seed)
        streams.append([sample(p, source) for _ in range(40)])
        streams.append(source.flips_consumed)
    states, enumeration = walk(p._runs, depth)
    tree = build_from_discrete(p, depth)
    verdicts = [check_optimal(t, p) for t in (tree, split_shallowest_leaf(tree))]
    return (
        streams,
        enumeration,
        list(enumeration.leaf_histories.items()),
        list(states.items()),
        list(tree.nodes.items()),
        [(v.ok, v.violations) for v in verdicts],
        _flip_distribution(p._runs, depth),
        _entropy(p._runs),
    )


def assert_layers_match_the_per_entry_compile(p: ProbabilityVector, depth: int) -> None:
    """``walk_results`` of ``p`` equal those of its per-entry copy, made
    after ``p`` has sampled, and the copy sampled from a table of its own
    record: every span it accepted has length 1."""
    results = walk_results(p, depth)
    ref = compiled_per_entry(p)
    assert walk_results(ref, depth) == results
    assert all(length == 1 for _, spans in ref._table for _, length in spans)


class TestBlockCompile:
    """Equal neighbours compile into one run; every layer that reads the
    runs must give what the one-run-per-entry compile gives, bit for bit."""

    @given(weighted_runs)
    @settings(max_examples=40, deadline=None)
    def test_layers_match_the_per_entry_compile(self, weighted):
        assert_layers_match_the_per_entry_compile(blocks_vector(weighted), 10)

    @pytest.mark.parametrize(
        "p",
        [UNIFORM_997, ProbabilityVector(["1/4", "1/4", "1/2"])],
        ids=lambda p: f"K{len(p)}",
    )
    def test_layers_match_the_per_entry_compile_on_fixed_targets(self, p):
        assert len(p._runs[0]) < len(p)
        assert_layers_match_the_per_entry_compile(p, 12)
        # so the copy did not read the table it was copied with
        assert any(length > 1 for _, spans in p._table for _, length in spans)

    def test_verdicts_list_levels_then_outcomes_ascending(self):
        p = ProbabilityVector(["1/4", "1/4", "1/2"])
        flat = DdgTree({"": None, "0": None, "1": None, "00": 1, "01": 2, "10": 3, "11": 3}, 2)
        assert check_optimal(flat, p).violations == [
            "outcome 3 appears 2 times at level 2",
            "outcome 3 has 0 leaves at level 1, expansion bit is 1",
        ]
        # four quarters, each resolved twice one level too deep
        nodes = {h: None for h in ("", "0", "1", "00", "01", "10", "11")}
        nodes.update({format(b, "03b"): b // 2 + 1 for b in range(8)})
        violations = check_optimal(DdgTree(nodes, 3), ProbabilityVector(["1/4"] * 4)).violations
        assert violations == [f"outcome {i} appears 2 times at level 3" for i in range(1, 5)] + [
            f"outcome {i} has 0 leaves at level 2, expansion bit is 1" for i in range(1, 5)
        ]

    @given(weighted_runs)
    @settings(max_examples=100)
    def test_runs_are_maximal_blocks_of_the_entries(self, weighted):
        p = blocks_vector(weighted)
        nums, dens, spans = p._runs
        assert len(nums) == len(dens) == len(spans)
        flat = [
            (i, Fraction(num, den))
            for num, den, (first, length) in zip(nums, dens, spans)
            for i in range(first, first + length)
        ]
        assert flat == list(enumerate(p.probs, start=1))
        keys = list(zip(nums, dens))
        assert all(a != b for a, b in zip(keys, keys[1:]))
        assert all(type(first) is type(length) is int for first, length in spans)
        assert rule_levels(p._runs, 0) == [acceptance_set(p, 0)]
        assert acceptance_set(p, 0) == tuple(i for i, q in flat if q == 1)

    def test_uniform_vector_compiles_to_the_die(self):
        for n in range(1, 301):
            assert uniform_probs(n)._runs == _die(n), n

    def test_sampling_a_huge_uniform_vector_costs_one_run(self):
        n = 100003
        p = uniform_probs(n)
        source = SeededSource(11)
        start = perf_counter()
        outcomes = [sample(p, source).outcome for _ in range(20)]
        assert perf_counter() - start < 1.0
        assert all(1 <= x <= n for x in outcomes)


def assert_draws_match_the_reference(p: ProbabilityVector, count: int) -> None:
    """Outcomes, flips and consumed bits of ``sample`` equal the
    reference's over three seeds."""
    for seed in (1, 2, 3):
        fast, slow = SeededSource(seed), SeededSource(seed)
        for _ in range(count):
            assert sample(p, fast) == reference_sample(p, slow)[0]
        assert fast.flips_consumed == slow.flips_consumed


certain_vectors = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda zeros: ProbabilityVector(["0"] * zeros[0] + ["1"] + ["0"] * zeros[1])
)


class TestReferenceSampler:
    """``sample`` walks the accepted runs of the compiled record; the
    reference copies each level's acceptance set and indexes it."""

    @given(weighted_runs.map(blocks_vector) | certain_vectors)
    @settings(max_examples=60, deadline=None)
    def test_draws_match_the_reference(self, p):
        assert_draws_match_the_reference(p, 30)

    @pytest.mark.parametrize(
        "p, count",
        [(UNIFORM_997, 30), (uniform_probs(100003), 3)],
        ids=["K997", "K100003"],
    )
    def test_draws_match_the_reference_on_wide_dice(self, p, count):
        assert_draws_match_the_reference(p, count)

    def test_sampling_a_huge_run_never_walks_it(self, monkeypatch):
        n = 1000003
        # neither the build nor a draw may walk the one run of n outcomes
        monkeypatch.setattr(discrete, "range", Unwalkable, raising=False)
        p = uniform_probs(n)
        assert p._runs[2] == ((1, n),)
        source = SeededSource(13)
        outcomes = [sample(p, source).outcome for _ in range(100)]
        assert all(1 <= x <= n for x in outcomes)


class TestHugeRuns:
    """A run is two ints, (first, length), so a run of more outcomes than
    len() of a range can count (2^63 - 1) compiles, levels and samples."""

    def test_the_die_record_is_its_one_span(self):
        assert _die(HUGE_DIE) == ((1,), (HUGE_DIE,), ((1, HUGE_DIE),))

    def test_levels_of_the_huge_die(self):
        # 1/(2^64 + 1) = (2^64 - 1)/(2^128 - 1): bits 65..128 are ones, then it repeats
        empty, full = (0, []), (HUGE_DIE, [(1, HUGE_DIE)])
        levels = list(islice(_levels(_die(HUGE_DIE)), 193))
        assert levels == [empty] * 65 + [full] * 64 + [empty] * 64

    def test_levels_of_two_huge_runs(self):
        levels = list(islice(_levels(TWIN_HUGE_RUNS), 81))
        assert levels[71] == (1 << 71, list(TWIN_HUGE_RUNS[2]))
        assert [k for k, _ in levels[:71] + levels[72:]] == [0] * 80

    @pytest.mark.parametrize(
        "record, sides",
        [(_die(HUGE_DIE), HUGE_DIE), (TWIN_HUGE_RUNS, 1 << 71)],
        ids=["die", "twin_runs"],
    )
    def test_sample_a_huge_record_as_the_die_roller_rolls(self, record, sides):
        # both records are uniform: the twin runs are the die 2^71 split in two
        p = copy.copy(ProbabilityVector(["1/2", "1/2"]))
        p._runs = record
        p._table = ()
        for seed in (1, 2, 3):
            fast, slow = SeededSource(seed), SeededSource(seed)
            assert [sample(p, fast) for _ in range(20)] == [roll(sides, slow) for _ in range(20)]
            assert fast.flips_consumed == slow.flips_consumed
        assert len(p._table) == table_depth(p) + 1


def table_depth(p: ProbabilityVector) -> int:
    """The deepest level ``sample`` keeps in ``p``'s table, whose levels
    start at level 0."""
    return discrete._TABLE_BITS + len(p).bit_length()


def draw_stream(p: ProbabilityVector, seed: int, count: int = 200) -> list[TracedRoll]:
    source = SeededSource(seed)
    return [sample(p, source) for _ in range(count)]


class TestLevelTable:
    """``sample`` computes each level once per target into a table on the
    vector, which later draws read; past the table's depth it opens the
    level rule at the table's end."""

    def test_table_grows_to_the_deepest_level_drawn(self):
        p = ProbabilityVector(["1/3", "2/3"])
        assert p._table == ()
        assert sample(p, ReplaySource([1, 1, 0])) == TracedRoll(2, 3)
        assert p._table == ((0, []), (1, [(2, 1)]), (1, [(1, 1)]), (1, [(2, 1)]))
        assert sample(p, ReplaySource([0])) == TracedRoll(2, 1)
        assert len(p._table) == 4

    def test_draws_past_the_table_match_the_reference(self):
        p = ProbabilityVector(["1/3", "2/3"])
        cap = table_depth(p)
        # each level accepts one outcome, and a 1 always recycles: x = 2 > k = 1.
        # The first draw walks 11 levels past the table, and the second must
        # read the same levels again.
        past = [1] * (cap + 10) + [0]
        bits = past + past + [0, 1, 1, 0]
        fast, slow = ReplaySource(bits), ReplaySource(bits)
        draws = [sample(p, fast) for _ in range(4)]
        assert draws == [reference_sample(p, slow)[0] for _ in range(4)]
        assert [r.flips for r in draws] == [cap + 11, cap + 11, 1, 3]
        assert len(p._table) == cap + 1
        assert fast.flips_consumed == len(bits)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("draws_before", [0, 50])
    def test_a_duplicate_draws_the_stream_of_its_original(self, duplicate, draws_before):
        p = ProbabilityVector(["1/3", "1/5", "7/15"])
        expected = draw_stream(ProbabilityVector(["1/3", "1/5", "7/15"]), 9)
        draw_stream(p, 4, draws_before)
        twin = duplicate(p)
        assert twin == p
        assert draw_stream(twin, 9) == expected
        assert draw_stream(p, 9) == expected

    def test_threads_sharing_a_vector_each_draw_their_own_stream(self):
        entries = [Fraction(i, 4950) for i in range(1, 100)]
        expected = {seed: draw_stream(ProbabilityVector(entries), seed) for seed in range(6)}
        p = ProbabilityVector(entries)
        streams = {}
        workers = [
            threading.Thread(target=lambda seed=seed: streams.update({seed: draw_stream(p, seed)}))
            for seed in expected
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert streams == expected

    def test_draws_match_the_reference_on_distinct_probabilities(self):
        k = 1024
        total = k * (k + 1) // 2
        p = ProbabilityVector([Fraction(i, total) for i in range(1, k + 1)])
        assert len(p._runs[0]) == k
        assert_draws_match_the_reference(p, 30)


class TestWarmDraws:
    """A draw reads the table's levels directly and starts ``_deeper``
    only when it outruns them."""

    def test_draws_inside_a_full_table_start_no_deeper_walk(self, monkeypatch):
        p = ProbabilityVector(["1/3", "2/3"])
        cap = table_depth(p)
        sample(p, ReplaySource([1] * (cap + 10) + [0]))
        assert len(p._table) == cap + 1
        started = []
        deeper = discrete._deeper

        def counting_deeper(p, table):
            started.append(len(table))
            return deeper(p, table)

        monkeypatch.setattr(discrete, "_deeper", counting_deeper)
        source = SeededSource(5)
        assert all(sample(p, source).flips <= cap for _ in range(1000))
        assert started == []
        # one draw past the cap starts one walk, from the table's end
        assert sample(p, ReplaySource([1] * cap + [0])).flips == cap + 1
        assert started == [cap + 1]

    def test_a_draw_that_outruns_the_table_grows_it_mid_draw(self):
        p = ProbabilityVector(["1/3", "2/3"])
        sample(p, ReplaySource([1, 1, 0]))
        assert len(p._table) == 4
        # a 1 always recycles (x = 2 > k = 1), so seven of them carry the draw to level 8
        bits = [1] * 7 + [0]
        fast, slow = ReplaySource(bits), ReplaySource(bits)
        draw = sample(p, fast)
        assert draw == reference_sample(p, slow)[0]
        assert draw.flips == 8
        assert len(p._table) == 9 < table_depth(p) + 1
        assert fast.flips_consumed == len(bits)


_REFERENCE_SIDES = list(range(1, 301)) + [2**40 + 15, 2**64 + 1]


class TestRoll:
    """The n-sided die roller, ``roll`` and ``roll_many``."""

    def test_one_sided_die_needs_no_flips(self):
        result = roll(1, ReplaySource([]))
        assert result.outcome == 1
        assert result.flips == 0

    def test_invalid_sides_rejected(self):
        with pytest.raises(ValueError):
            roll(0, ReplaySource([]))
        with pytest.raises(TypeError):
            roll(2.0, ReplaySource([]))

    def test_five_sided_all_zero_bits_accepts_one(self):
        result = roll(5, ReplaySource([0, 0, 0]))
        assert result.outcome == 1
        assert result.flips == 3
        reference, trace = reference_roll(5, ReplaySource([0, 0, 0]))
        assert reference == result
        assert trace == [
            RecyclerState(1, 1),
            RecyclerState(1, 2),
            RecyclerState(1, 4),
            RecyclerState(1, 8),
            RecyclerState(1, 5),
        ]

    def test_five_sided_all_one_bits_recycles(self):
        # x reaches 8 > 5 after three flips, leaving a recycled 3-sided state
        with pytest.raises(SourceExhausted):
            roll(5, ReplaySource([1, 1, 1]))
        result = roll(5, ReplaySource([1, 1, 1, 0]))
        assert result.outcome == 3
        assert result.flips == 4
        reference, trace = reference_roll(5, ReplaySource([1, 1, 1, 0]))
        assert reference == result
        assert RecyclerState(3, 3) in trace

    def test_five_sided_four_one_bits_restarts_then_exhausts(self):
        source = ReplaySource([1, 1, 1, 1])
        with pytest.raises(SourceExhausted):
            roll(5, source)
        assert source.flips_consumed == 4
        # the restart state is visible through the exhaustive state tree
        states, _ = walk(_die(5), 4)
        assert states["111"] == RecyclerState(3, 3)
        assert states["1111"] == RecyclerState(1, 1)

    def test_four_sided_bits_one_zero(self):
        # confirmed against the trie walk: history "10" lands on 2
        result = roll(4, ReplaySource([1, 0]))
        assert result.outcome == 2
        assert result.flips == 2
        assert enumerate_uniform(4, 2).leaf_histories["10"] == 2

    def test_two_sided_die_is_one_flip_per_roll(self):
        rolls = roll_many(2, 3, ReplaySource([0, 1, 1]))
        assert [r.outcome for r in rolls] == [1, 2, 2]
        assert [r.flips for r in rolls] == [1, 1, 1]

    def test_roll_many_one_sided(self):
        rolls = roll_many(1, 10, ReplaySource([]))
        assert [r.outcome for r in rolls] == [1] * 10
        assert sum(r.flips for r in rolls) == 0

    def test_roll_many_checks_sides_once_and_rolls_as_roll_does(self, monkeypatch):
        source = SeededSource(5)
        expected = [roll(7, source) for _ in range(60)]
        calls = []
        monkeypatch.setattr(discrete, "_check_sides", calls.append)
        assert roll_many(7, 60, SeededSource(5)) == expected
        assert calls == [7]

    @pytest.mark.parametrize("count", [0, 3])
    def test_roll_many_rejects_bad_sides_before_rolling(self, count):
        with pytest.raises(ValueError, match="sides must be >= 1"):
            roll_many(0, count, ReplaySource([]))

    def test_roll_many_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
            roll_many(6, -1, ReplaySource([]))

    def test_roll_many_total_flips_match_source_counter(self):
        source = SeededSource(3)
        rolls = roll_many(7, 500, source)
        assert sum(r.flips for r in rolls) == source.flips_consumed

    def test_empirical_frequencies_five_sided(self):
        source = SeededSource(11)
        counts = [0] * 5
        for r in roll_many(5, 100_000, source):
            counts[r.outcome - 1] += 1
        for c in counts:
            assert abs(c / 100_000 - 0.2) < 0.01  # ~3 sigma is 0.0038

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_replay_fidelity(self, n, seed):
        # the same bit script always produces the same outcome and flip count
        probe = SeededSource(seed)
        bits = [probe.next_bit() for _ in range(64)]
        first = roll(n, ReplaySource(bits))
        second = roll(n, ReplaySource(bits))
        assert (first.outcome, first.flips) == (second.outcome, second.flips)
        assert 1 <= first.outcome <= n

    @given(st.integers(2, 32), st.integers(0, 2**32 - 1))
    def test_state_bounds_hold_along_the_trace(self, n, seed):
        # doubling keeps m <= 2n-1 until resolution pulls it back to <= n;
        # the reference traces the roll that roll makes of the same bits
        result, trace = reference_roll(n, SeededSource(seed))
        assert roll(n, SeededSource(seed)) == result
        for x, m in trace:
            assert 1 <= x <= m
            assert m <= 2 * n - 1
        assert trace[-1] == RecyclerState(result.outcome, n)

    @given(st.integers(2, 32), st.integers(0, 2**32 - 1))
    def test_flips_equal_loop_iterations(self, n, seed):
        source = SeededSource(seed)
        before = source.flips_consumed
        result = roll(n, source)
        assert result.flips == source.flips_consumed - before

    @pytest.mark.parametrize("n", list(range(1, 65)) + [257, 997])
    def test_roll_is_sample_of_the_uniform_distribution(self, n):
        # roll is the arithmetic fast path of sample(1/n x n): same outcomes
        # and flip counts on the same bit stream
        p = uniform_probs(n)
        for seed in (0, 1, 2):
            rolls = roll_many(n, 40, SeededSource(seed))
            source = SeededSource(seed)
            assert rolls == [sample(p, source) for _ in range(40)]

    def test_roll_matches_the_reference_loop(self):
        for n in _REFERENCE_SIDES:
            source, reference = SeededSource(n), SeededSource(n)
            for _ in range(20):
                assert discrete._roll(n, source) == reference_roll(n, reference)[0]
            assert source.flips_consumed == reference.flips_consumed

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 100, 2**40 + 15, 2**64 + 1])
    def test_roll_runs_dry_at_the_reference_bit(self, n):
        # a replay cut at every length inside one roll raises from both loops
        # after the same bits, and counts only the bits handed out
        probe = SeededSource(n)
        bits = [probe.next_bit() for _ in range(4 * n.bit_length() + 8)]
        for cut in range(len(bits) + 1):
            outcomes = []
            for roller in (discrete._roll, lambda n, s: reference_roll(n, s)[0]):
                source = ReplaySource(bits[:cut])
                try:
                    outcomes.append(roller(n, source))
                except SourceExhausted:
                    outcomes.append(None)
                outcomes.append(source.flips_consumed)
            assert outcomes[:2] == outcomes[2:]
            if outcomes[0] is None:
                assert outcomes[1] == cut
