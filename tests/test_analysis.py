import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coindice
from coindice import (
    ProbabilityVector,
    build_canonical,
    entropy,
    enumerate_uniform,
    exact_expected_flips,
    flip_distribution,
    flip_distribution_uniform,
    verify_bounds,
)
from coindice import analysis, ddg
from coindice.analysis import BoundViolation, _entropy, _order_of_two
from coindice.ddg import FlipDistribution, _flip_distribution, expansion_bit
from coindice.discrete import _die, ceil_log2
from conftest import HUGE_DIE, TWIN_HUGE_RUNS, Unwalkable, dyadic_suite, flip_tail, uniform_probs

# Independent second route: the recycle chain.  From a recycled s-sided
# die the roller flips k = ceil(log2(n/s)) coins up to s' = s*2^k in
# [n, 2n-1], accepts with probability n/s' and otherwise recycles an
# (s'-n)-sided die.  Each step is the integer affine map
# E(s) = (k*s' + (s' - n) * E(s')) / s', and the repeated state closes
# one linear equation.  It shares no step with the library's closed form
# over the period of 1/n.


def _chain(n: int):
    """Follow s -> s*2^k - n from s=1 until absorption or a repeat.

    Returns the (s, k, s') steps and the index where the cycle starts, or
    None when a doubling lands exactly on n and acceptance is certain.
    """
    steps = []
    seen = {}
    s = 1
    while s not in seen:
        seen[s] = len(steps)
        k = ceil_log2((n + s - 1) // s)
        s2 = s << k
        steps.append((s, k, s2))
        s = s2 - n
        if s == 0:
            return steps, None
    return steps, seen[s]


def _compose(maps: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Compose affine maps (a, b, d): x -> (a + b*y) / d, first map
    outermost, as a balanced product tree."""
    while len(maps) > 1:
        merged = [
            (a1 * d2 + b1 * a2, b1 * b2, d1 * d2)
            for (a1, b1, d1), (a2, b2, d2) in zip(maps[::2], maps[1::2])
        ]
        if len(maps) % 2:
            merged.append(maps[-1])
        maps = merged
    return maps[0]


def chain_expected_flips(n: int) -> Fraction:
    """E[N] solved from the recycle chain in O(L log n) bits."""
    if n == 1:
        return Fraction(0)
    steps, cycle_start = _chain(n)
    maps = [(k * s2, s2 - n, s2) for _, k, s2 in steps]
    if cycle_start is None:
        a, _, d = _compose(maps)
        return Fraction(a, d)
    a_c, b_c, d_c = _compose(maps[cycle_start:])
    a_p, b_p, d_p = _compose(maps[:cycle_start]) if cycle_start else (0, 1, 1)
    # E(1) = (a_p + b_p * a_c / (d_c - b_c)) / d_p
    return Fraction(a_p * (d_c - b_c) + b_p * a_c, d_p * (d_c - b_c))


@dataclass
class RecurrenceSolution:
    """Expected flips plus per-die-size expected visit counts."""

    expected_flips: Fraction
    visit_states: dict[int, Fraction]


def solve_recurrence(n: int) -> RecurrenceSolution:
    """Expected flips plus expected visits to each recycled die size."""
    expected = chain_expected_flips(n)
    visits: dict[int, Fraction] = {}
    if n == 1:
        return RecurrenceSolution(expected, visits)
    steps, cycle_start = _chain(n)
    reach = Fraction(1)
    reaches = []
    for s, k, s2 in steps:
        reaches.append(reach)
        reach *= Fraction(s2 - n, s2)
    if cycle_start is None:
        for (s, _, _), r in zip(steps, reaches):
            visits[s] = r
    else:
        # cycle weight: product of continuation probabilities once around
        cycle_weight = reach / reaches[cycle_start]
        boost = 1 / (1 - cycle_weight)
        for idx, ((s, _, _), r) in enumerate(zip(steps, reaches)):
            visits[s] = r * boost if idx >= cycle_start else r
    # internal consistency: total flips spent at each size reproduce E
    assert sum((visits[s] * k for s, k, _ in steps), Fraction(0)) == expected
    return RecurrenceSolution(expected, visits)


class TestExactExpectedFlips:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, Fraction(0)),
            (2, Fraction(1)),
            (3, Fraction(8, 3)),
            (4, Fraction(2)),
            (5, Fraction(18, 5)),
            (6, Fraction(11, 3)),
            (8, Fraction(3)),
            (1024, Fraction(10)),
        ],
    )
    def test_known_values(self, n, expected):
        assert exact_expected_flips(n) == expected

    @pytest.mark.parametrize("k", range(13))
    def test_powers_of_two_never_reject(self, k):
        assert exact_expected_flips(1 << k) == k

    def test_doubling_the_die_adds_one_flip_below_600(self):
        # bit j + 1 of 1/(2n) is bit j of 1/n, so every history is one flip longer
        for n in range(1, 600):
            assert exact_expected_flips(2 * n) == exact_expected_flips(n) + 1, n

    # 1000003 has period 1000002 (about 2 s per call), 2^64 + 1 period 128
    @pytest.mark.parametrize("n", [1000003, 2**64 + 1])
    def test_doubling_a_large_die_adds_one_flip(self, n):
        assert exact_expected_flips(2 * n) == exact_expected_flips(n) + 1

    # 4099 and 20011 have long periods (2049 and 3335 chain steps); the
    # even sizes enter their cycle after a non-empty chain prefix
    @pytest.mark.parametrize("n", [*range(1, 2000), 4099, 20011, 2 * 4099, 2 * 20011])
    def test_recurrence_equals_series_closure(self, n):
        # two independent routes: the recycle-chain solve vs summing
        # j * P(N=j) from the expansion of 1/n in closed form
        assert exact_expected_flips(n) == chain_expected_flips(n)

    # 2^61 - 1 and 2^89 - 1 are Mersenne primes (order 61 and 89) and
    # 2^64 + 1 has order 128: doubling settles them at once, where trial
    # division to their square roots would not finish
    @pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1, 2**64 + 1])
    def test_huge_short_period_sizes_are_cheap(self, n):
        start = time.perf_counter()
        value = exact_expected_flips(n)
        assert time.perf_counter() - start < 1.0
        assert value == chain_expected_flips(n)

    def test_long_period_fits_in_bounded_memory(self):
        # period 50001: the child caps its own address space at 1 GB and
        # prints E[N] in hex, which has no int-to-str digit limit
        script = (
            "import resource\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
            "from coindice import exact_expected_flips\n"
            "e = exact_expected_flips(100003)\n"
            "assert 17 <= e <= 18, e\n"
            "print(hex(e.numerator), hex(e.denominator))\n"
        )
        src = os.path.dirname(os.path.dirname(coindice.__file__))
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        num, den = (int(h, 16) for h in child.stdout.split())
        assert Fraction(num, den) == chain_expected_flips(100003)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 12])
    def test_recurrence_vs_truncated_enumeration(self, n):
        # every unfinished path at depth L costs more than L flips, so the
        # partial sum undershoots by between L and 2L times the residual
        depth = 30
        fd = flip_distribution_uniform(n, depth)
        partial = fd.partial_expectation()
        exact = exact_expected_flips(n)
        assert partial <= exact
        assert exact - partial >= depth * fd.residual
        assert exact - partial <= 2 * depth * fd.residual
        if n == 3:
            assert exact - partial < Fraction(1, 2**24)

    def test_visit_diagnostics_reproduce_expectation(self):
        solution = solve_recurrence(5)
        assert solution.expected_flips == Fraction(18, 5)
        assert solution.visit_states[1] == Fraction(16, 15)
        assert solution.visit_states[3] == Fraction(2, 5)

    @pytest.mark.parametrize("n", range(1, 51))
    def test_visit_accounting_consistent_for_small_sizes(self, n):
        # solve_recurrence internally asserts sum(visits * flips) == E
        solution = solve_recurrence(n)
        assert solution.expected_flips == exact_expected_flips(n)

    def test_invalid_sides(self):
        with pytest.raises(ValueError):
            exact_expected_flips(0)


class TestOrderOfTwo:
    def test_matches_brute_force_doubling(self):
        for q in range(3, 5000, 2):
            order, value = 1, 2 % q
            while value != 1:
                value = value * 2 % q
                order += 1
            assert _order_of_two(q) == order, q


class TestPeriodBudget:
    """An order of two past ``analysis.PERIOD_BUDGET`` raises ValueError
    in the one baby-step giant-step search, before the quadratic gcd of
    E[N] starts."""

    def test_largest_admitted_period_is_found(self):
        # 2097133 is prime with period 2097132, 20 below the budget
        assert analysis.PERIOD_BUDGET == 1 << 21
        assert _order_of_two(2097133) == 2097132

    @pytest.mark.parametrize("n", [4000037, 100000007, 10**30])
    def test_period_past_the_budget_raises_at_once(self, n):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            exact_expected_flips(n)
        assert time.perf_counter() - start < 10
        assert type(exc.value) is ValueError
        assert str(exc.value) == "the period of 1/n passes the period budget of 2097152 bits"

    @pytest.mark.parametrize(
        "q, order", [(2**61 - 1, 61), (4000037, 4000036)], ids=["doubling", "carmichael"]
    )
    def test_budget_admits_an_order_equal_to_it(self, monkeypatch, q, order):
        monkeypatch.setattr(analysis, "PERIOD_BUDGET", order)
        assert _order_of_two(q) == order
        monkeypatch.setattr(analysis, "PERIOD_BUDGET", order - 1)
        with pytest.raises(ValueError, match="period budget of"):
            _order_of_two(q)


def _prime_factors(k: int) -> set[int]:
    """The primes dividing k >= 1, by trial division."""
    primes, d = set(), 2
    while d * d <= k:
        while k % d == 0:
            primes.add(d)
            k //= d
        d += 1
    return primes | ({k} if k > 1 else set())


class TestBabyStepGiantStep:
    """``_order_of_two`` is one search: baby steps settle an order up to
    m = isqrt(bound), giant steps of m every longer one, with
    bound = min(PERIOD_BUDGET, q - 1)."""

    @given(st.integers(1, 2**20 - 1).map(lambda v: 2 * v + 1))
    @settings(max_examples=300)
    def test_order_has_a_certificate(self, q):
        # below 2^21 no order passes the budget: 2^k = 1, and no k/p does
        k = _order_of_two(q)
        assert pow(2, k, q) == 1
        assert all(pow(2, k // p, q) != 1 for p in _prime_factors(k))

    @pytest.mark.parametrize(
        "q, order",
        [
            (2**1447 - 1, 1447),  # m - 1: baby steps
            (2**1448 - 1, 1448),  # m: the last baby step
            (2**724 + 1, 1448),  # m as 2k
            (2**1449 - 1, 1449),  # m + 1: the first giant step, j = 1
            (2**1448 + 1, 2896),  # 2m: a giant step that hits j = 0
            (2**2000 + 1, 4000),
        ],
        ids=["m-1", "m", "m-as-2k", "m+1", "2m", "giant"],
    )
    def test_orders_at_the_phase_edges(self, q, order):
        assert math.isqrt(analysis.PERIOD_BUDGET) == 1448
        assert _order_of_two(q) == order

    @pytest.mark.parametrize(
        "q, order",
        [(2**k - 1, k) for k in (2, 3, 5, 8, 13)]
        + [(2**k + 1, 2 * k) for k in (1, 4, 6, 8, 9)]
        + [(7, 3), (11, 10), (25, 20), (97, 48), (101, 100)],
    )
    def test_every_budget_admits_the_order_or_refuses_it(self, monkeypatch, q, order):
        # below q - 1, a budget of order^2 or more leaves the order to the
        # baby steps and order^2 - 1 to the first giant step; budget = order
        # is the last one admitted, for 257 = 2^8 + 1 at the last giant step
        # (16 = 4 * isqrt(16))
        for budget in range(1, 4 * order * order):
            monkeypatch.setattr(analysis, "PERIOD_BUDGET", budget)
            if order <= budget:
                assert _order_of_two(q) == order, budget
            else:
                with pytest.raises(ValueError) as exc:
                    _order_of_two(q)
                assert str(exc.value) == (
                    f"the period of 1/n passes the period budget of {budget} bits"
                )

    @pytest.mark.parametrize("n", [10**30, 2**42 + 15])
    def test_refusal_takes_at_most_a_few_thousand_products(self, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="period budget"):
            exact_expected_flips(n)
        assert time.perf_counter() - start < 0.05


class TestFlipDistributionUniform:
    def test_five_sided_levels(self):
        fd = flip_distribution_uniform(5, 8)
        assert fd.mass == {
            3: Fraction(5, 8),
            4: Fraction(5, 16),
            7: Fraction(5, 128),
            8: Fraction(5, 256),
        }

    def test_two_sided_single_flip(self):
        fd = flip_distribution_uniform(2, 4)
        assert fd.mass == {1: Fraction(1)}
        assert fd.residual == 0

    def test_six_sided_head(self):
        fd = flip_distribution_uniform(6, 3)
        assert fd.mass[3] == Fraction(3, 4)

    def test_one_sided(self):
        fd = flip_distribution_uniform(1, 4)
        assert fd.mass == {0: Fraction(1)}
        assert fd.expectation() == 0

    def test_largest_admitted_depth_passes_and_the_next_raises(self):
        assert ddg.DEPTH_BUDGET == 1 << 14
        fd = flip_distribution_uniform(1, ddg.DEPTH_BUDGET)
        assert fd.mass == {0: Fraction(1)}
        with pytest.raises(ValueError) as exc:
            flip_distribution_uniform(1, ddg.DEPTH_BUDGET + 1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "depth 16385 passes the depth budget of 16384 levels"

    def test_depth_zero_holds_only_level_zero(self):
        assert flip_distribution_uniform(1, 0) == FlipDistribution([1])
        assert flip_distribution_uniform(2, 0) == FlipDistribution([0], 1)
        assert flip_distribution_uniform(2, 0).residual == 1

    def test_negative_depth_is_rejected(self):
        # without the check, islice raises a ValueError of its own wording
        with pytest.raises(ValueError) as exc:
            flip_distribution_uniform(5, -1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "depth must be >= 0, got -1"

    def test_die_of_more_sides_than_len_can_count(self):
        # 1/(2^64 + 1) = (2^64 - 1)/(2^128 - 1): bits 65..128 are ones
        fd = flip_distribution_uniform(HUGE_DIE, 70)
        assert fd.mass == {j: Fraction(HUGE_DIE, 1 << j) for j in range(65, 71)}

    def test_runs_of_more_outcomes_than_len_can_count(self):
        fd = _flip_distribution(TWIN_HUGE_RUNS, 80)
        assert fd.mass == {71: Fraction(1)}
        assert fd.residual == 0

    @given(
        st.one_of(
            st.integers(1, 10**6).map(_die),
            st.lists(st.integers(0, 40), min_size=1, max_size=9)
            .filter(any)
            .map(lambda w: ProbabilityVector([Fraction(x, sum(w)) for x in w])._runs),
            st.sampled_from([_die(HUGE_DIE), TWIN_HUGE_RUNS]),
        ),
        st.integers(0, 200),
    )
    @settings(max_examples=100)
    def test_residual_is_one_minus_the_level_masses(self, record, depth):
        # k_j counts the outcomes with a 1 at bit j: per run, bit j of num/den
        nums, dens, spans = record
        expected = 1 - sum(
            Fraction(length * ((num << j) // den & 1), 1 << j)
            for j in range(depth + 1)
            for num, den, (_, length) in zip(nums, dens, spans)
        )
        assert _flip_distribution(record, depth).residual == expected

    def test_deepest_certain_outcome_sums_only_its_one_mass(self):
        # a residual summed as Fractions over every level, zero counts
        # included, divides a 16,385-bit denominator 16,385 times (about 1.5 s)
        start = time.perf_counter()
        fd = _flip_distribution(_die(1), ddg.DEPTH_BUDGET)
        assert fd.partial_expectation() == 0
        assert time.perf_counter() - start < 0.1
        assert fd.mass == {0: Fraction(1)}
        assert fd.residual == 0

    @pytest.mark.parametrize(
        "record, exact, seconds",
        [
            (_die(3), Fraction(8, 3), 0.3),
            (ProbabilityVector(["1/3", "2/3"])._runs, Fraction(2), 0.5),
        ],
        ids=["die-3", "1/3,2/3"],
    )
    def test_deepest_admitted_masses_sum_by_shifts(self, record, exact, seconds):
        # summed over an lcm divided by each 2^j this took 1.4 s and 2.8 s
        depth = ddg.DEPTH_BUDGET
        start = time.perf_counter()
        fd = _flip_distribution(record, depth)
        partial = fd.partial_expectation()
        assert time.perf_counter() - start < seconds
        # every unfinished path at the depth costs more than depth flips
        assert depth * fd.residual <= exact - partial <= 2 * depth * fd.residual

    @pytest.mark.parametrize("n", range(1, 33))
    def test_matches_canonical_tree_distribution(self, n):
        depth = 2 * max(ceil_log2(n), 1) + 8
        probs = uniform_probs(n)
        from_bits = flip_distribution_uniform(n, depth)
        from_tree = flip_distribution(build_canonical(probs, depth))
        assert from_bits.mass == from_tree.mass
        assert from_bits.residual == from_tree.residual

    @pytest.mark.parametrize(
        "p",
        [
            ProbabilityVector(entries)
            for entries in (
                ["1/3", "2/3"],
                ["1/3", "1/5", "7/15"],
                ["0", "1/5", "0", "4/5"],
                ["0", "1", "0"],
                ["1/4", "1/4", "1/2"],
                [Fraction(1, 997)] * 997,
            )
        ]
        + dyadic_suite()[:5],
        ids=lambda p: f"K{len(p)}",
    )
    def test_vector_masses_are_the_expansion_bits(self, p):
        # P(N = j) counts the outcomes with a 1 at bit j, read by random access
        depth = 24
        fd = _flip_distribution(p._runs, depth)
        leaves = [sum(expansion_bit(q, j) for q in p.probs) for j in range(depth + 1)]
        assert fd.mass == {j: Fraction(c, 1 << j) for j, c in enumerate(leaves) if c}

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_oracle_flip_mass(self, n):
        depth = 14
        fd = flip_distribution_uniform(n, depth)
        oracle = enumerate_uniform(n, depth)
        assert {j: q for j, q in fd.mass.items() if q} == oracle.flip_mass
        assert fd.residual == oracle.live_mass


class TestFlipDistributionType:
    def test_must_sum_to_one(self):
        # P(N = 1) = 1/2 and a residual of 1/4 at depth 2
        with pytest.raises(ValueError) as exc:
            FlipDistribution([0, 1, 0], 1)
        assert str(exc.value) == "masses sum to 3/4, expected exactly 1"

    @pytest.mark.parametrize(
        "leaves, live, total",
        [
            ([0, 2, 1], 0, "5/4"),
            ([0, 1, 0], 3, "5/4"),
            ([0, 1, 1], 0, "3/4"),
            ([0, 0, 1], 2, "3/4"),
        ],
        ids=["leaves-over", "live-over", "leaves-under", "live-under"],
    )
    def test_counts_must_fill_the_tree(self, leaves, live, total):
        # a mass is a count over a power of two, reduced, so no other
        # denominator can arise; only counts that over- or under-fill the
        # 2^depth histories are wrong
        fd = FlipDistribution([0, 0, 2, 0], 4)
        assert (fd.mass, fd.residual) == ({2: Fraction(1, 2)}, Fraction(1, 2))
        with pytest.raises(ValueError) as exc:
            FlipDistribution(leaves, live)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"masses sum to {total}, expected exactly 1"

    def test_a_zero_mass_is_allowed(self):
        fd = FlipDistribution([0, 0, 4])
        assert fd.mass == {2: Fraction(1)}
        assert fd.expectation() == 2

    def test_a_truncated_distribution_has_no_exact_expectation(self):
        with pytest.raises(ValueError) as exc:
            FlipDistribution([0, 1], 1).expectation()
        assert str(exc.value) == (
            "distribution truncated with residual 1/2; use partial_expectation()"
        )

    def test_negative_mass_is_rejected(self):
        # these counts fill the tree, so only the sign check rejects them
        for leaves, live in [([0, -1, 6], 0), ([0, 1, 3], -1)]:
            with pytest.raises(ValueError) as exc:
                FlipDistribution(leaves, live)
            assert type(exc.value) is ValueError
            assert str(exc.value) == "negative probability mass"

    def test_equal_distributions_compare_equal_at_any_depth(self):
        shallow, deep = FlipDistribution([0, 1], 1), FlipDistribution([0, 1, 0], 2)
        assert shallow == deep
        assert shallow.partial_expectation() == deep.partial_expectation() == Fraction(1, 2)
        assert shallow != FlipDistribution([0, 1, 1], 1)

    def test_tail(self):
        fd = FlipDistribution([0, 1, 1, 2])
        assert flip_tail(fd, 0) == 1
        assert flip_tail(fd, 1) == Fraction(1, 2)
        assert flip_tail(fd, 2) == Fraction(1, 4)
        assert flip_tail(fd, 3) == 0


class TestBounds:
    def test_sweep_holds_to_512(self):
        report = verify_bounds(512)
        assert len(report.rows) == 512
        for row in report.rows:
            assert row.lower <= row.expected <= row.upper

    def test_five_sided_slack(self):
        row = verify_bounds(5).rows[-1]
        assert row.upper - row.expected == Fraction(2, 5)

    def test_slack_extremes_to_64(self):
        report = verify_bounds(64)
        assert report.min_upper_slack == (43, Fraction(7, 129))
        # every power of two ties n = 1 at slack 1, and the first n wins
        assert report.max_upper_slack == (1, Fraction(1))

    def test_empty_sweep_is_rejected(self):
        # without the check, min() of no slacks raises a ValueError of its own wording
        with pytest.raises(ValueError) as exc:
            verify_bounds(0)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "n_max must be >= 1, got 0"

    def test_a_sweep_past_the_sweep_budget_is_refused_before_any_work(self, monkeypatch):
        assert analysis.SWEEP_BUDGET == 1 << 15
        seen = []
        monkeypatch.setattr(analysis, "exact_expected_flips", seen.append)
        with pytest.raises(ValueError) as exc:
            verify_bounds(10**9)
        assert str(exc.value) == "a sweep to 1000000000 passes the sweep budget of 32768 sizes"
        with pytest.raises(ValueError, match="^a sweep to 32769 passes the sweep budget"):
            verify_bounds(32769)
        assert seen == []
        monkeypatch.undo()
        monkeypatch.setattr(analysis, "SWEEP_BUDGET", 8)
        assert len(verify_bounds(8).rows) == 8  # the budget itself is admitted

    def test_a_sweep_of_one_is_the_one_sided_die(self):
        assert [(row.n, row.expected) for row in verify_bounds(1).rows] == [(1, 0)]

    def test_powers_of_two_meet_the_lower_bound(self):
        report = verify_bounds(64)
        for k in range(7):
            row = report.rows[(1 << k) - 1]
            assert row.expected == row.lower

    @staticmethod
    def off_at_five(monkeypatch, expected_at_five):
        """verify_bounds over an E[N] that is exact below n = 5 and
        ``expected_at_five(lower, upper)`` at n = 5."""
        real = analysis.exact_expected_flips

        def fake(n):
            lower = ceil_log2(n)
            return real(n) if n < 5 else expected_at_five(lower, lower + 1)

        monkeypatch.setattr(analysis, "exact_expected_flips", fake)

    def test_expectation_below_the_lower_bound_raises(self, monkeypatch):
        self.off_at_five(monkeypatch, lambda lower, upper: Fraction(lower - 1))
        with pytest.raises(BoundViolation) as info:
            verify_bounds(8)
        assert type(info.value) is BoundViolation
        assert str(info.value) == "n=5: E[N]=2 below lower bound 3"

    def test_an_expectation_on_the_upper_bound_passes(self, monkeypatch):
        # the bracket is closed: E[N] = ceil(log2 n) + 1 is no violation
        self.off_at_five(monkeypatch, lambda lower, upper: Fraction(upper))
        assert verify_bounds(5).rows[-1].expected == 4

    def test_expectation_above_the_upper_bound_raises(self, monkeypatch):
        self.off_at_five(monkeypatch, lambda lower, upper: Fraction(upper + 1))
        with pytest.raises(BoundViolation) as info:
            verify_bounds(8)
        assert type(info.value) is BoundViolation
        assert str(info.value) == "n=5: E[N]=5 above upper bound 4"


class TestEntropy:
    def test_coin(self):
        assert entropy(ProbabilityVector(["1/2", "1/2"])) == 1.0

    def test_certain(self):
        assert entropy(ProbabilityVector(["1"])) == 0.0

    def test_probability_below_the_smallest_float_adds_nothing(self):
        tiny = Fraction(1, 10**400)
        assert entropy(ProbabilityVector([tiny, 1 - tiny])) == 0.0

    def test_three_outcomes(self):
        value = entropy(ProbabilityVector(["3/8", "1/2", "1/8"]))
        assert math.isclose(value, 1.405639, abs_tol=1e-6)

    def test_run_past_2_64_is_one_product(self, monkeypatch):
        monkeypatch.setattr(analysis, "range", Unwalkable, raising=False)
        start = time.perf_counter()
        value = _entropy(_die(HUGE_DIE))
        assert time.perf_counter() - start < 1
        assert abs(value - 64) < 1e-9

    @pytest.mark.parametrize(
        "record",
        [
            _die(1 << 20),
            # a third of the mass over 2^20 outcomes, where the loop and one
            # product round differently
            ((1, 2), (3 << 20, 3), ((1, 1 << 20), ((1 << 20) + 1, 1))),
        ],
        ids=["die", "third"],
    )
    def test_runs_up_to_2_20_keep_the_per_outcome_loop(self, record):
        nums, dens, spans = record
        total = 0.0
        for num, den, (_, length) in zip(nums, dens, spans):
            x = num / den
            for _ in range(length):
                total -= x * math.log2(x)
        assert _entropy(record) == total

    def test_entropy_floors_the_expected_flips(self):
        for n in range(2, 40):
            floor = math.log2(n)
            assert float(exact_expected_flips(n)) >= floor - 1e-12
