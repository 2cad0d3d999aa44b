import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import coindice
from coindice import (
    BoundViolation,
    FlipDistribution,
    ProbabilityVector,
    build_canonical,
    ceil_log2,
    entropy,
    enumerate_uniform,
    exact_expected_flips,
    flip_distribution,
    flip_distribution_uniform,
    series_expected_flips,
    solve_recurrence,
    verify_bounds,
)


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

    # 4099 and 20011 have long periods (2049 and 3335 chain steps); the
    # even sizes enter their cycle after a non-empty chain prefix
    @pytest.mark.parametrize("n", [*range(1, 65), 4099, 20011, 2 * 4099, 2 * 20011])
    def test_recurrence_equals_series_closure(self, n):
        # two independent routes: the recycle-chain solve vs summing
        # j * P(N=j) from the expansion of 1/n in closed form
        assert exact_expected_flips(n) == series_expected_flips(n)

    def test_long_period_fits_in_bounded_memory(self):
        # period 50001: the child caps its own address space at 1 GB
        script = (
            "import resource\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
            "from coindice import exact_expected_flips, series_expected_flips\n"
            "e = exact_expected_flips(100003)\n"
            "assert e == series_expected_flips(100003)\n"
            "assert 17 <= e <= 18, e\n"
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

    @pytest.mark.parametrize("n", range(1, 33))
    def test_matches_canonical_tree_distribution(self, n):
        depth = 2 * max(ceil_log2(n), 1) + 8
        probs = ProbabilityVector([Fraction(1, n)] * n)
        from_bits = flip_distribution_uniform(n, depth)
        from_tree = flip_distribution(build_canonical(probs, depth))
        assert from_bits.mass == from_tree.mass
        assert from_bits.residual == from_tree.residual

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_oracle_flip_mass(self, n):
        depth = 14
        fd = flip_distribution_uniform(n, depth)
        oracle = enumerate_uniform(n, depth)
        assert {j: q for j, q in fd.mass.items() if q} == oracle.flip_mass
        assert fd.residual == oracle.live_mass


class TestFlipDistributionType:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FlipDistribution({1: Fraction(1, 2)}, Fraction(1, 4))

    def test_tail(self):
        fd = FlipDistribution(
            {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
        )
        assert fd.tail(0) == 1
        assert fd.tail(1) == Fraction(1, 2)
        assert fd.tail(2) == Fraction(1, 4)
        assert fd.tail(3) == 0


class TestBounds:
    def test_sweep_holds_to_512(self):
        report = verify_bounds(512)
        assert len(report.rows) == 512
        for row in report.rows:
            assert row.lower <= row.expected <= row.upper

    def test_five_sided_slack(self):
        row = verify_bounds(5).rows[-1]
        assert row.upper - row.expected == Fraction(2, 5)

    def test_powers_of_two_meet_the_lower_bound(self):
        report = verify_bounds(64)
        for k in range(7):
            row = report.rows[(1 << k) - 1]
            assert row.expected == row.lower

    def test_violation_is_raised_not_reported(self):
        # sanity on the guard itself: a fake expectation outside the
        # bracket trips BoundViolation
        with pytest.raises(BoundViolation):
            raise BoundViolation("synthetic")


class TestEntropy:
    def test_coin(self):
        assert entropy(ProbabilityVector(["1/2", "1/2"])) == 1.0

    def test_certain(self):
        assert entropy(ProbabilityVector(["1"])) == 0.0

    def test_three_outcomes(self):
        value = entropy(ProbabilityVector(["3/8", "1/2", "1/8"]))
        assert math.isclose(value, 1.405639, abs_tol=1e-6)

    def test_entropy_floors_the_expected_flips(self):
        for n in range(2, 40):
            floor = math.log2(n)
            assert float(exact_expected_flips(n)) >= floor - 1e-12
