import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coindice import (
    MassMismatch,
    ProbabilityVector,
    build_canonical,
    build_from_discrete,
    build_from_uniform,
    check_optimal,
    enumerate_uniform,
    exact_expected_flips,
    export_dot,
    flip_distribution,
    roll,
    sample,
)
from coindice import ddg
from coindice.ddg import (
    DdgTree,
    FlipDistribution,
    _check_optimal,
    _expand,
    _flip_distribution,
    _tally,
    census,
)
from coindice.discrete import _die, ceil_log2
from conftest import (
    HUGE_DIE,
    TWIN_HUGE_RUNS,
    Unwalkable,
    dyadic_suite,
    flip_tail,
    level_multisets,
    max_level,
    random_dyadic_distribution,
    split_shallowest_leaf,
    uniform_probs,
    walk,
)
from reference import (
    RecyclerState,
    ReplaySource,
    SourceExhausted,
    acceptance_set,
    dense_check_optimal,
    history_bits,
    live_mass,
    replay_tally,
    replay_tree,
)

EIGHTHS = ProbabilityVector(["3/8", "1/2", "1/8"])

# the wasteful tree for (3/8, 1/2, 1/8): every outcome resolved at depth
# three, so it always spends three flips
FLAT_DEPTH3_TREE = DdgTree(
    {
        "": None,
        "0": None,
        "1": None,
        "00": None,
        "01": None,
        "10": None,
        "11": None,
        "000": 1,
        "001": 1,
        "010": 2,
        "011": 1,
        "100": 2,
        "101": 2,
        "110": 2,
        "111": 3,
    },
    3,
)


NON_DYADIC = [
    ProbabilityVector(["1/3", "2/3"]),
    ProbabilityVector(["1/3", "1/5", "7/15"]),
    ProbabilityVector(["1/5", "2/5", "2/5"]),
]


def dominates(a: FlipDistribution, b: FlipDistribution) -> bool:
    """True iff a's flip count is stochastically no worse than b's:
    P(N_a > i) <= P(N_b > i) for every i."""
    horizon = max(max_level(a), max_level(b))
    for i in range(horizon + 1):
        if flip_tail(a, i) > flip_tail(b, i):
            return False
    return a.residual <= b.residual


def assert_equals_replay(tree, run):
    reference = replay_tree(run, tree.depth_bound)
    assert tree == reference
    assert list(tree.nodes) == list(reference.nodes)  # same insertion order
    for history, outcome in tree.leaves():
        result = run(ReplaySource(history_bits(history)))
        assert (result.outcome, result.flips) == (outcome, len(history))
    for history in tree.frontier():
        with pytest.raises(SourceExhausted):
            run(ReplaySource(history_bits(history)))


def verdict_of(check, tree, record):
    """(ok, violations) of a check, or the text of its MassMismatch."""
    try:
        verdict = check(tree, record)
    except MassMismatch as exc:
        return str(exc)
    return verdict.ok, verdict.violations


@st.composite
def checked_trees(draw):
    """A sampler or canonical tree of a die of up to 40 sides or a vector
    of up to 9 outcomes, with a few leaves relabelled (outcome K + 1
    included) or split, and subtrees pruned into a leaf or a frontier."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        p, record = uniform_probs(n), _die(n)
        depth = draw(st.integers(1, 2 * ceil_log2(n) + 4))
        sampler = build_from_uniform(n, depth)
    else:
        weights = draw(st.lists(st.integers(0, 12), min_size=1, max_size=9).filter(any))
        p = ProbabilityVector([Fraction(w, sum(weights)) for w in weights])
        record = p._runs
        depth = draw(st.integers(1, 14))
        sampler = build_from_discrete(p, depth)
    tree = sampler if draw(st.booleans()) else build_canonical(p, depth)
    label = st.integers(1, len(p) + 1)
    nodes = dict(tree.nodes)
    for kind in draw(st.lists(st.sampled_from(["relabel", "split", "leaf", "frontier"]), max_size=3)):
        on_leaf = kind in ("relabel", "split")
        # a leaf to relabel or split, or a branch node to prune
        candidates = sorted(
            h for h, out in nodes.items() if (out is not None if on_leaf else h + "0" in nodes)
        )
        if not candidates:
            continue
        history = draw(st.sampled_from(candidates))
        if kind == "relabel":
            nodes[history] = draw(label)
        elif kind == "split":
            nodes.update({history: None, history + "0": draw(label), history + "1": draw(label)})
        else:
            for below in [h for h in nodes if len(h) > len(history) and h.startswith(history)]:
                del nodes[below]
            nodes[history] = draw(label) if kind == "leaf" else None
    return DdgTree(nodes, tree.depth_bound), record


class TestBuildCanonical:
    def test_eighths_matches_known_optimal_shape(self):
        tree = build_canonical(EIGHTHS, 3)
        assert tree.is_complete()
        assert census(tree) == {(1, 2): 1, (2, 1): 1, (3, 1): 1, (3, 3): 1}

    def test_half_half(self):
        tree = build_canonical(ProbabilityVector(["1/2", "1/2"]), 1)
        assert tree.nodes == {"": None, "0": 1, "1": 2}

    def test_certain_outcome_is_a_root_leaf(self):
        p = ProbabilityVector(["1"])
        tree = build_canonical(p, 5)
        assert tree.nodes == {"": 1}
        assert census(tree) == {(0, 1): 1}
        # the requested bound, as the sampler tree's
        assert tree.depth_bound == build_from_discrete(p, 5).depth_bound == 5
        assert check_optimal(tree, p).ok

    @given(
        # (weight, run length) pairs: zero weights and repeated neighbours included
        st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4)), min_size=1, max_size=6).filter(
            lambda runs: any(w for w, _ in runs)
        ),
        st.integers(1, 20),
    )
    @settings(max_examples=200)
    def test_each_level_places_the_reference_acceptance_set(self, runs, depth):
        weights = [w for w, length in runs for _ in range(length)]
        p = ProbabilityVector([Fraction(w, sum(weights)) for w in weights])
        leaves = sorted(build_canonical(p, depth).leaves())  # position order within a level
        for level in range(depth + 1):
            placed = tuple(out for h, out in leaves if len(h) == level)
            assert placed == acceptance_set(p, level), level

    def test_depth_bound_below_one_is_rejected(self):
        # without the check, a depth bound of 0 builds a one-node tree
        with pytest.raises(ValueError) as exc:
            build_canonical(ProbabilityVector(["1/3", "2/3"]), 0)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "depth_bound must be >= 1, got 0"

    def test_thirds_truncates_with_explicit_residual(self):
        tree = build_canonical(ProbabilityVector(["1/3", "2/3"]), 6)
        counts = census(tree)
        assert counts == {(1, 2): 1, (2, 1): 1, (3, 2): 1, (4, 1): 1, (5, 2): 1, (6, 1): 1}
        assert live_mass(tree) == Fraction(1, 64)
        # unplaced expansion mass per outcome
        placed_1 = Fraction(1, 4) + Fraction(1, 16) + Fraction(1, 64)
        placed_2 = Fraction(1, 2) + Fraction(1, 8) + Fraction(1, 32)
        assert Fraction(1, 3) - placed_1 == Fraction(1, 192)
        assert Fraction(2, 3) - placed_2 == Fraction(1, 96)
        assert (Fraction(1, 3) - placed_1) + (Fraction(2, 3) - placed_2) == live_mass(tree)


class TestBuildFromAlgorithm:
    def test_five_sided_depth_four_leaf_layout(self):
        tree = build_from_uniform(5, 4)
        counts = census(tree)
        assert {k: v for k, v in counts.items() if k[0] == 3} == {
            (3, i): 1 for i in range(1, 6)
        }
        assert {k: v for k, v in counts.items() if k[0] == 4} == {
            (4, i): 1 for i in range(1, 6)
        }
        assert len(tree.frontier()) == 1  # the restart path

    def test_two_sided_depth_one(self):
        tree = build_from_uniform(2, 1)
        assert tree.nodes == {"": None, "0": 1, "1": 2}

    def test_discrete_census_equals_canonical(self):
        assert census(build_from_discrete(EIGHTHS, 3)) == census(
            build_canonical(EIGHTHS, 3)
        )

    def test_matches_oracle_node_for_node(self):
        tree = build_from_uniform(5, 6)
        oracle_leaves = enumerate_uniform(5, 6).leaf_histories
        tree_leaves = dict(tree.leaves())
        assert tree_leaves == oracle_leaves

    @pytest.mark.parametrize("n", range(1, 41))
    def test_uniform_tree_equals_replay_reference(self, n):
        tree = build_from_uniform(n, 2 * ceil_log2(n) + 4)
        assert_equals_replay(tree, lambda source: roll(n, source))

    @pytest.mark.parametrize(
        "p", dyadic_suite() + NON_DYADIC, ids=lambda p: ",".join(map(str, p))
    )
    def test_discrete_tree_equals_replay_reference(self, p):
        tree = build_from_discrete(p, 12)
        assert_equals_replay(tree, lambda source: sample(p, source))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_die_tree_is_the_uniform_distribution_tree(self, n):
        depth = 2 * ceil_log2(n) + 4
        die = build_from_uniform(n, depth)
        dist = build_from_discrete(uniform_probs(n), depth)
        assert list(die.nodes.items()) == list(dist.nodes.items())
        assert die.depth_bound == dist.depth_bound

    def test_builders_and_tallies_never_replay(self, monkeypatch):
        # a replay per node costs O(nodes x depth); the trie walk needs none
        def refuse(self, bits):
            raise AssertionError("ReplaySource constructed")

        monkeypatch.setattr(ReplaySource, "__init__", refuse)
        with pytest.raises(AssertionError):
            ReplaySource([0])
        p = NON_DYADIC[1]
        assert not build_from_uniform(37, 16).is_complete()
        assert not build_from_discrete(p, 12).is_complete()
        assert enumerate_uniform(97, 24).live_mass > 0
        assert flip_distribution(build_canonical(p, 20)).residual > 0

    def test_builder_agreement_on_random_dyadic_distributions(self):
        rng = random.Random(1234)
        for _ in range(10):
            p = random_dyadic_distribution(rng, max_outcomes=6, denom_power=8)
            algo = census(build_from_discrete(p, 9))
            canon = census(build_canonical(p, 9))
            assert algo == canon, p


@st.composite
def sampler_targets(draw):
    """(record, run) of a die of up to 40 sides or a vector of up to 9
    outcomes, where run draws one variate from a source."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        return _die(n), lambda source: roll(n, source)
    weights = draw(st.lists(st.integers(0, 12), min_size=1, max_size=9).filter(any))
    p = ProbabilityVector([Fraction(w, sum(weights)) for w in weights])
    return p._runs, lambda source: sample(p, source)


class TestTrieWalk:
    @settings(max_examples=50, deadline=None)
    @given(sampler_targets(), st.integers(1, 10))
    def test_each_level_holds_k_leaves_and_m_live_histories(self, target, depth):
        record, run = target
        walk = list(_expand(record, depth))
        live = 1
        for level, (k, m, nodes) in enumerate(walk):
            assert {len(h) for h, _, _ in nodes} == {level}
            assert sorted(x for _, x, out in nodes if out is not None) == list(range(1, k + 1))
            assert sorted(x for _, x, out in nodes if out is None) == list(range(1, m + 1))
            if level:
                assert len(nodes) == 2 * live
            live = m
        # the walk stops at the depth bound or at the first level where nothing runs
        live_counts = [m for _, m, _ in walk]
        assert 0 not in live_counts[:-1]
        assert len(walk) == depth + 1 or live_counts[-1] == 0
        tally = _tally(walk, depth)
        reference = replay_tally(replay_tree(run, depth))
        assert tally == reference
        assert list(tally.leaf_histories) == list(reference.leaf_histories)


class TestCheckOptimal:
    def test_flat_tree_is_valid_but_not_optimal(self):
        verdict = check_optimal(FLAT_DEPTH3_TREE, EIGHTHS)
        assert not verdict.ok
        assert any("outcome 1 appears 3 times at level 3" in v for v in verdict.violations)

    def test_verdict_is_its_truth_value(self):
        tree = build_from_uniform(3, 12)
        assert bool(check_optimal(tree, uniform_probs(3))) is True
        verdict = check_optimal(split_shallowest_leaf(tree), uniform_probs(3))
        assert bool(verdict) is False
        assert "outcome 1 appears 2 times at level 3" in verdict.violations

    def test_canonical_tree_is_optimal(self):
        assert check_optimal(build_canonical(EIGHTHS, 3), EIGHTHS).ok

    def test_complete_tree_gives_one_verdict_at_any_depth_bound(self):
        # past its deepest leaf a complete tree has no leaf and its
        # target no 1 bit, so the check stops there
        flat = DdgTree(FLAT_DEPTH3_TREE.nodes, 10**9)
        assert check_optimal(flat, EIGHTHS) == check_optimal(FLAT_DEPTH3_TREE, EIGHTHS)
        for p in dyadic_suite()[:10]:
            assert check_optimal(build_from_discrete(p, 10**9), p).ok

    def test_algorithm_tree_for_five_sided_die_is_optimal(self):
        tree = build_from_uniform(5, 12)
        assert check_optimal(tree, uniform_probs(5)).ok

    def test_wrong_distribution_raises_mass_mismatch(self):
        tree = build_canonical(EIGHTHS, 3)
        with pytest.raises(MassMismatch):
            check_optimal(tree, ProbabilityVector(["1/2", "1/4", "1/4"]))

    def test_unknown_outcome_raises_mass_mismatch(self):
        tree = DdgTree({"": None, "0": 1, "1": 7}, 1)
        with pytest.raises(MassMismatch):
            check_optimal(tree, ProbabilityVector(["1/2", "1/2"]))

    @pytest.mark.parametrize(
        "nodes, probs, message",
        [
            (
                {"": None, "0": 2, "1": None, "10": 1, "11": 2},
                ["1/2", "1/2"],
                "outcome 1 has leaf mass 1/4, distribution says 1/2",
            ),
            (
                {"": None, "0": 2, "1": 2},
                ["1/2", "1/2"],
                "outcome 1 has leaf mass 0, distribution says 1/2",
            ),
            # "11" is an unexpanded frontier node: the tree is truncated
            (
                {"": None, "0": 1, "1": None, "10": 1, "11": None},
                ["1/2", "1/2"],
                "outcome 1 has leaf mass 3/4 exceeding 1/2",
            ),
            (
                {"": None, "0": 2, "1": None, "10": 2, "11": None},
                ["3/8", "1/2", "1/8"],
                "outcome 2 has leaf mass 3/4 exceeding 1/2",
            ),
            ({"": None, "0": 1, "1": 7}, ["1/2", "1/2"], "leaf outcome 7 outside 1..2"),
        ],
    )
    def test_mass_mismatch_message_names_exact_masses(self, nodes, probs, message):
        tree = DdgTree(nodes, max(map(len, nodes)))
        with pytest.raises(MassMismatch) as excinfo:
            check_optimal(tree, ProbabilityVector(probs))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("n", range(1, 65))
    def test_recycler_trees_optimal_through_checked_depth(self, n):
        depth = 2 * max((n - 1).bit_length(), 1) + 8
        tree = build_from_uniform(n, depth)
        assert check_optimal(tree, uniform_probs(n)).ok


    @given(checked_trees())
    @settings(max_examples=300, deadline=None)
    def test_sparse_check_matches_the_dense_reference(self, tree_and_record):
        tree, record = tree_and_record
        sparse = verdict_of(_check_optimal, tree, record)
        assert sparse == verdict_of(dense_check_optimal, tree, record)

    def test_a_stray_leaf_at_the_depth_bound_is_named(self):
        # thirds to depth 4 with outcome 2's level-3 leaf pruned to a frontier and
        # outcome 1's level-4 leaf relabelled 2: no mass exceeds its target, so
        # only the per-level check sees the leaf of outcome 2 at the last level
        thirds = ProbabilityVector(["1/3", "2/3"])
        nodes = {**build_canonical(thirds, 4).nodes, "110": None, "1110": 2}
        violations = [
            "outcome 2 has 0 leaves at level 3, expansion bit is 1",
            "outcome 1 has 0 leaves at level 4, expansion bit is 1",
            "outcome 2 has 1 leaves at level 4, expansion bit is 0",
        ]
        for check in (_check_optimal, dense_check_optimal):
            assert verdict_of(check, DdgTree(nodes, 4), thirds._runs) == (False, violations)

    def test_check_never_walks_every_side_of_a_shallow_tree(self, monkeypatch):
        n = 1000003
        tree = build_from_uniform(n, 1)
        monkeypatch.setattr(ddg, "range", Unwalkable, raising=False)
        assert _check_optimal(tree, _die(n)).ok

    def test_check_of_runs_longer_than_len_can_count(self):
        assert _check_optimal(build_from_uniform(HUGE_DIE, 1), _die(HUGE_DIE)).ok
        shallow = {"": None, "0": None, "1": None}
        assert _check_optimal(DdgTree(shallow, 1), TWIN_HUGE_RUNS).ok
        second = (1 << 70) + 5
        with pytest.raises(MassMismatch) as exc:
            _check_optimal(DdgTree({**shallow, "0": second}, 1), TWIN_HUGE_RUNS)
        assert str(exc.value) == f"outcome {second} has leaf mass 1/2 exceeding 1/{1 << 71}"
        with pytest.raises(MassMismatch) as exc:
            _check_optimal(DdgTree({**shallow, "0": (1 << 71) + 1}, 1), TWIN_HUGE_RUNS)
        assert str(exc.value) == f"leaf outcome {(1 << 71) + 1} outside 1..{1 << 71}"


class TestFlipDistribution:
    def test_known_optimal_tree(self):
        fd = flip_distribution(build_canonical(EIGHTHS, 3))
        assert fd.mass == {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
        assert fd.expectation() == Fraction(7, 4)

    def test_flat_tree_always_three_flips(self):
        fd = flip_distribution(FLAT_DEPTH3_TREE)
        assert fd.mass == {3: Fraction(1)}

    def test_five_sided_deep_tree_expectation_converges(self):
        fd = flip_distribution(build_from_uniform(5, 24))
        assert abs(fd.partial_expectation() - exact_expected_flips(5)) < Fraction(1, 2**18)

    def test_truncated_expectation_refuses_exactness(self):
        fd = flip_distribution(build_from_uniform(5, 6))
        with pytest.raises(ValueError):
            fd.expectation()


def fills_the_tree(leaves: list[int], live: int) -> bool:
    """The counts are never negative and sum_j leaves[j] * 2^(d - j) + live
    = 2^d over d = len(leaves) - 1: they place every history of the depth."""
    depth = len(leaves) - 1
    filled = sum(k << (depth - j) for j, k in enumerate(leaves)) + live
    return min(leaves + [live]) >= 0 and filled == 1 << depth


def level_masses(leaves) -> dict[int, Fraction]:
    """P(N = j) = k_j * 2^-j over the levels with a leaf."""
    return {j: Fraction(k, 1 << j) for j, k in enumerate(leaves) if k}


@st.composite
def built_trees(draw):
    """A canonical or sampler tree of a die of up to 40 sides or a vector
    of up to 9 outcomes, or the same with its shallowest leaf split."""
    depth = draw(st.integers(1, 10))
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        p, sampler = uniform_probs(n), build_from_uniform(n, depth)
    else:
        weights = draw(st.lists(st.integers(0, 12), min_size=1, max_size=9).filter(any))
        p = ProbabilityVector([Fraction(w, sum(weights)) for w in weights])
        sampler = build_from_discrete(p, depth)
    tree = sampler if draw(st.booleans()) else build_canonical(p, depth)
    split = any(tree.leaves()) and draw(st.booleans())
    return split_shallowest_leaf(tree) if split else tree


class TestLeafCounts:
    """Every producer of a flip distribution passes leaf and live counts
    that fill the tree, and the masses are those counts over 2^j."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 40))
    def test_the_level_rule_passes_counts_to_its_depth(self, data, depth):
        record = data.draw(sampler_targets())[0]
        fd = _flip_distribution(record, depth)
        assert len(fd.leaves) == depth + 1
        assert fills_the_tree(fd.leaves, fd.live)
        assert fd.mass == level_masses(fd.leaves)
        assert fd.residual == Fraction(fd.live, 1 << depth)

    @settings(max_examples=60, deadline=None)
    @given(sampler_targets(), st.integers(1, 12))
    def test_the_walk_passes_the_level_rules_counts(self, target, depth):
        record = target[0]
        walk = list(_expand(record, depth))
        leaves, live = [k for k, _, _ in walk], walk[-1][1]
        assert fills_the_tree(leaves, live)
        tally = _tally(walk, depth)
        assert tally.flip_mass == level_masses(leaves)
        assert tally.live_mass == Fraction(live, 1 << depth)
        # a walk that stops early has no leaf left to place
        fd = _flip_distribution(record, depth)
        assert fd.leaves[: len(leaves)] == leaves
        assert (fd.mass, fd.residual) == (tally.flip_mass, tally.live_mass)

    @settings(max_examples=60, deadline=None)
    @given(built_trees())
    def test_a_tree_passes_its_leaves_per_level_and_its_frontier(self, tree):
        fd = flip_distribution(tree)
        assert len(fd.leaves) == 1 + max(map(len, tree.nodes))
        assert fills_the_tree(fd.leaves, fd.live)
        levels = Counter(len(h) for h, _ in tree.leaves())
        assert fd.mass == {j: Fraction(k, 1 << j) for j, k in levels.items()}
        assert fd.residual == live_mass(tree)

    @pytest.mark.parametrize(
        "level, extra_leaves, extra_live",
        [(3, 1, 0), (6, 0, 1), (6, 0, -1)],
        ids=["extra-leaf", "live-plus-one", "live-minus-one"],
    )
    def test_a_walk_with_corrupted_counts_is_refused(self, level, extra_leaves, extra_live):
        walk = list(_expand(_die(5), 6))
        k, m, nodes = walk[level]
        assert (level, k, m) in {(3, 5, 3), (6, 0, 4)}
        walk[level] = (k + extra_leaves, m + extra_live, nodes)
        with pytest.raises(ValueError, match="^masses sum to .*, expected exactly 1$"):
            _tally(walk, 6)


class TestDominates:
    def test_optimal_beats_flat(self):
        good = flip_distribution(build_canonical(EIGHTHS, 3))
        flat = flip_distribution(FLAT_DEPTH3_TREE)
        assert dominates(good, flat)
        assert not dominates(flat, good)

    def test_reflexive(self):
        fd = flip_distribution(build_canonical(EIGHTHS, 3))
        assert dominates(fd, fd)

    def test_canonical_dominates_algorithm_tree_on_random_dyadics(self):
        rng = random.Random(99)
        for _ in range(10):
            p = random_dyadic_distribution(rng, max_outcomes=6, denom_power=8)
            canon = flip_distribution(build_canonical(p, 9))
            algo = flip_distribution(build_from_discrete(p, 9))
            assert dominates(canon, algo)

    @given(st.data())
    @settings(max_examples=30)
    def test_pushing_any_leaf_deeper_is_strictly_worse(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        p = random_dyadic_distribution(rng, max_outcomes=5, denom_power=6)
        tree = build_canonical(p, 7)
        leaves = sorted(dict(tree.leaves()))
        target = data.draw(st.sampled_from(leaves))
        outcome = tree.nodes[target]
        mutated = dict(tree.nodes)
        mutated[target] = None
        mutated[target + "0"] = outcome
        mutated[target + "1"] = outcome
        worse = DdgTree(mutated, max(tree.depth_bound, len(target) + 1))
        fd = flip_distribution(tree)
        fd_worse = flip_distribution(worse)
        assert dominates(fd, fd_worse)
        assert any(
            flip_tail(fd, i) < flip_tail(fd_worse, i) for i in range(max_level(fd_worse) + 1)
        )
        assert not check_optimal(worse, p).ok


class TestMassCorrectness:
    @pytest.mark.parametrize("p, depth", [(EIGHTHS, 3), (ProbabilityVector(["1/3", "2/3"]), 9)])
    def test_leaf_mass_plus_residual_reconstructs_probabilities(self, p, depth):
        tree = build_canonical(p, depth)
        counts = census(tree)
        total_residual = Fraction(0)
        for i in range(1, len(p) + 1):
            placed = sum(
                (Fraction(c, 1 << j) for (j, o), c in counts.items() if o == i),
                Fraction(0),
            )
            assert placed <= p.probs[i - 1]
            total_residual += p.probs[i - 1] - placed
        assert total_residual == live_mass(tree)


class TestExportDot:
    def test_single_leaf(self):
        dot = export_dot(build_canonical(ProbabilityVector(["1"]), 1))
        assert 'r [shape=box, label="1"];' in dot
        assert dot.count("->") == 0

    def test_known_tree_shape(self):
        dot = export_dot(build_canonical(EIGHTHS, 3))
        assert dot.count("shape=circle") == 3
        assert dot.count("shape=box") == 4
        assert '[label="0"]' in dot and '[label="1"]' in dot

    def test_five_sided_depth_four_node_count(self):
        tree = build_from_uniform(5, 4)
        dot = export_dot(tree)
        # 1 + 2 + 4 + 8 positions plus the depth-four row that remains
        assert dot.count("shape=box") == 10
        assert dot.count("shape=circle") == len(tree.nodes) - 10

    def test_deterministic(self):
        a = export_dot(build_from_uniform(6, 8))
        b = export_dot(build_from_uniform(6, 8))
        assert a == b


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


class TestStateTree:
    """The trie walk's (x, m) states and tallies, replayed by ``roll`` and ``sample``."""

    def test_five_sided_state_tree_spot_paths(self):
        states = walk(_die(5), 4)[0]
        assert states[""] == RecyclerState(1, 1)
        assert states["0"] == RecyclerState(1, 2)
        assert states["11"] == RecyclerState(4, 4)
        assert states["111"] == RecyclerState(3, 3)  # (8, 8) recycled
        assert states["110"] == RecyclerState(4, 5)  # (4, 8) accepted

    def test_five_sided_level_multisets_match_known_layout(self):
        grouped = level_multisets(walk(_die(5), 4)[0])
        for level, expected in FIVE_SIDED_LEVELS.items():
            assert grouped[level] == Counter(expected), level

    def test_five_sided_restart_levels_repeat_the_top(self):
        grouped = level_multisets(walk(_die(5), 6)[0])
        assert grouped[5] == grouped[1]
        assert grouped[6] == grouped[2]

    def test_five_sided_pre_resolution_states(self):
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

    def test_one_sided_die_is_an_immediate_leaf(self):
        states = walk(_die(1), 3)[0]
        assert states == {"": RecyclerState(1, 1)}
        result = enumerate_uniform(1, 3)
        assert result.outcome_mass == {1: Fraction(1)}
        assert result.flip_mass == {0: Fraction(1)}

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_rejected(self, depth):
        # without the check, depth 0 would report the whole mass as live
        with pytest.raises(ValueError) as exc:
            enumerate_uniform(5, depth)
        assert str(exc.value) == f"depth must be >= 1, got {depth}"

    def test_walk_budget_admits_depth_2895_of_thirds_and_refuses_2896(self):
        # one history runs per level, so levels 1..j hold j(j + 1) characters:
        # 2895 * 2896 <= 2^23 < 2896 * 2897
        thirds = ProbabilityVector(["1/3", "2/3"])._runs
        assert len(list(_expand(thirds, 2895))) == 2896
        with pytest.raises(ValueError) as exc:
            _expand(thirds, 2896)
        assert str(exc.value) == (
            "trie walk to depth 2896 passes the walk budget of 8388608 history characters at level 2896"
        )

    def test_a_walk_of_exactly_the_budget_is_admitted(self, monkeypatch):
        # thirds to depth j hold j(j + 1) history characters: 12 at depth 3
        thirds = ProbabilityVector(["1/3", "2/3"])._runs
        monkeypatch.setattr(ddg, "WALK_BUDGET", 12)
        assert len(list(_expand(thirds, 3))) == 4
        with pytest.raises(ValueError, match="walk budget of 12 history characters at level 4$"):
            _expand(thirds, 4)

    def test_two_sided_die_depth_one(self):
        result = enumerate_uniform(2, 1)
        assert result.outcome_mass == {1: Fraction(1, 2), 2: Fraction(1, 2)}
        assert result.live_mass == 0

    def test_five_sided_depth_four_leaves_and_live_mass(self):
        result = enumerate_uniform(5, 4)
        assert result.leaf_histories["000"] == 1
        assert result.leaf_histories["001"] == 5
        by_level = Counter(len(h) for h in result.leaf_histories)
        assert by_level == {3: 5, 4: 5}
        assert result.live_mass == Fraction(1, 16)

    def test_five_sided_depth_eight_masses_equal(self):
        result = enumerate_uniform(5, 8)
        assert result.live_mass == Fraction(1, 256)
        assert set(result.outcome_mass.values()) == {Fraction(51, 256)}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_uniformity_small_dice(self, n):
        result = enumerate_uniform(n, 16)
        assert len(result.outcome_mass) == n
        assert len(set(result.outcome_mass.values())) == 1
        assert result.terminated_mass() + result.live_mass == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_conditional_uniformity_within_every_m_group(self, n):
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
    def test_live_mass_decays_geometrically(self, n):
        # each window long enough to double any state past n gives at least
        # one acceptance chance of probability >= 1/(2n)
        window = (2 * n - 1).bit_length()
        base = enumerate_uniform(n, 8).live_mass
        for k in (1, 2):
            deeper = enumerate_uniform(n, 8 + k * window).live_mass
            assert deeper <= base * Fraction(2 * n - 1, 2 * n) ** k

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_oracle_agrees_with_replayed_rolls(self, n):
        # every trie-walk leaf and live path reproduces exactly under roll()
        depth = 10
        result = enumerate_uniform(n, depth)
        for history, outcome in result.leaf_histories.items():
            bits = history_bits(history)
            replay = ReplaySource(bits)
            traced = roll(n, replay)
            assert traced.outcome == outcome
            assert traced.flips == len(bits) == replay.flips_consumed

    def test_discrete_state_tree_matches_uniform_structure(self):
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
    def test_discrete_conditional_uniformity_within_m_groups(self, probs):
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

    def test_discrete_oracle_agrees_with_replayed_samples(self):
        p = ProbabilityVector(["3/8", "1/2", "1/8"])
        result = walk(p._runs, 3)[1]
        for history, outcome in result.leaf_histories.items():
            bits = history_bits(history)
            traced = sample(p, ReplaySource(bits))
            assert traced.outcome == outcome
            assert traced.flips == len(bits)
        # live prefixes really are still running
        states, deeper = walk(ProbabilityVector(["1/3", "2/3"])._runs, 5)
        live = [h for h in states if len(h) == 5 and h not in deeper.leaf_histories]
        for history in live:
            with pytest.raises(SourceExhausted):
                sample(ProbabilityVector(["1/3", "2/3"]), ReplaySource(history_bits(history)))
