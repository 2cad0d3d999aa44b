import json
import time

import pytest

from coindice.cli import main, naive_rejection_roll
from coindice import ReplaySource, SeededSource


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_die_outcomes_in_range_and_deterministic(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--die", "5", "--count", "3", "--seed", "42")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # three outcomes plus summary
        assert all(1 <= int(v) <= 5 for v in lines[:3])
        code2, out2, _ = run_cli(capsys, "sample", "--die", "5", "--count", "3", "--seed", "42")
        assert out2 == out

    def test_one_sided_die(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--die", "1", "--count", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:2] == ["1", "1"]
        assert "total_flips=0" in lines[2]

    def test_dist_with_flip_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--dist", "3/8,1/2,1/8", "--count", "10",
            "--seed", "1", "--show-flips",
        )
        assert code == 0
        lines = out.strip().splitlines()[:-1]
        assert len(lines) == 10
        for line in lines:
            outcome, flips = map(int, line.split())
            assert 1 <= outcome <= 3
            assert flips >= 1

    def test_decimal_distribution_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--dist", "0.5,0.5")
        assert code == 1
        assert "a/b" in err

    def test_huge_die_does_no_per_side_work(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "sample", "--die", str(10**12), "--count", "1")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.endswith("entropy_floor=39.8631\n")


class TestAnalyze:
    def test_die_five(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--die", "5")
        assert code == 0
        assert "E[N] = 18/5 = 3.6" in out
        assert "bounds [3, 4]" in out

    def test_die_eight(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--die", "8")
        assert code == 0
        assert "E[N] = 3/1 = 3.0" in out

    def test_dist(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--dist", "3/8,1/2,1/8")
        assert code == 0
        assert "E[N] = 7/4 = 1.75" in out
        assert "N=1  1/2" in out
        assert "N=2  1/4" in out
        assert "N=3  1/4" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--die", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["expected_num"], payload["expected_den"]) == (18, 5)
        assert (payload["lower"], payload["upper"]) == (3, 4)

    def test_sweep_lines(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--sweep", "16", "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["n"] for row in rows] == list(range(1, 17))
        assert all(
            row["lower"] * row["expected_den"]
            <= row["expected_num"]
            <= row["upper"] * row["expected_den"]
            for row in rows
        )
        assert "within bounds" in err


class TestTree:
    def test_check_optimal_die(self, capsys):
        code, out, err = run_cli(capsys, "tree", "--die", "5", "--depth", "6", "--check")
        assert code == 0
        assert out.startswith("digraph")
        assert "optimal" in err

    def test_two_leaf_dot(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--dist", "1/2,1/2", "--depth", "1")
        assert code == 0
        assert out.count("shape=box") == 2

    def test_known_tree_shape(self, capsys):
        code, out, err = run_cli(
            capsys, "tree", "--dist", "3/8,1/2,1/8", "--depth", "3", "--check"
        )
        assert code == 0
        assert out.count("shape=box") == 4
        assert out.count("shape=circle") == 3
        assert "optimal" in err


class TestOracleDump:
    def test_five_sided_dump(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-dump", "--die", "5", "--depth", "4")
        assert code == 0
        assert '0 "" (1, 1)' in out
        assert '3 "111" (3, 3)' in out
        assert '3 "000" (1, 5) -> 1' in out


class TestChisq:
    def test_die_passes(self, capsys):
        code, out, _ = run_cli(capsys, "chisq", "--die", "6", "--count", "60000", "--seed", "9")
        assert code == 0
        assert "PASS" in out

    def test_dist_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "chisq", "--dist", "3/8,1/2,1/8", "--count", "80000", "--seed", "3"
        )
        assert code == 0
        assert "PASS" in out

    def test_count_too_small_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "chisq", "--die", "6", "--count", "100")
        assert code == 1
        assert "at least 50" in err

    def test_single_category(self, capsys):
        code, out, _ = run_cli(capsys, "chisq", "--die", "1", "--count", "100")
        assert code == 0
        assert "chi-square = 0.0000" in out


class TestBench:
    def test_small_run_reports_rates(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--die", "4,5", "--count", "2000", "--seed", "0", "--json"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["n"] for row in rows] == [4, 5]
        four, five = rows
        assert four["recycler_flips_per_roll"] == 2.0
        assert four["naive_flips_per_roll"] == 2.0
        assert abs(five["recycler_flips_per_roll"] - 3.6) < 0.2
        assert five["recycler_flips_per_roll"] < five["naive_flips_per_roll"]
        assert "rolls/s" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--die", "7", "--count", "50", "--seed", "5", "--show-flips"],
            ["analyze", "--die", "12"],
            ["tree", "--die", "5", "--depth", "6", "--check"],
            ["oracle-dump", "--dist", "1/3,2/3", "--depth", "5"],
            ["chisq", "--die", "5", "--count", "20000", "--seed", "8"],
        ],
    )
    def test_identical_command_lines_give_identical_stdout(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestBenchAgreement:
    def test_measured_rate_within_five_sigma_of_exact(self):
        from coindice import exact_expected_flips, roll_many

        count = 100_000
        rolls = roll_many(11, count, SeededSource(31))
        flips = [r.flips for r in rolls]
        mean = sum(flips) / count
        variance = sum((f - mean) ** 2 for f in flips) / (count - 1)
        sigma_of_mean = (variance / count) ** 0.5
        assert abs(mean - float(exact_expected_flips(11))) < 5 * sigma_of_mean


class TestNaiveBaseline:
    def test_accepts_in_range_value(self):
        outcome, flips = naive_rejection_roll(5, ReplaySource([0, 1, 1]))
        assert (outcome, flips) == (4, 3)

    def test_discards_all_bits_on_overflow(self):
        # 111 -> 7 >= 5 rejected, then 000 -> 0 accepted as outcome 1
        outcome, flips = naive_rejection_roll(5, ReplaySource([1, 1, 1, 0, 0, 0]))
        assert (outcome, flips) == (1, 6)

    def test_expected_rate(self):
        source = SeededSource(5)
        total = 0
        for _ in range(20_000):
            total += naive_rejection_roll(5, source)[1]
        assert abs(total / 20_000 - 4.8) < 0.1


class TestUsage:
    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_unknown_die_value(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--die", "0")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--dist", "1/0,1"],
            ["sample", "--dist", '[{"num": 1, "den": 0}]'],
            ["sample", "--dist", '[{"num": true, "den": 1}]'],
            ["analyze", "--dist", "1/3,2/3", "--depth", "0"],
            ["analyze", "--die", "5", "--depth", "-1"],
        ],
        ids=["zero-den", "json-zero-den", "json-bool", "dist-depth-0", "die-depth-negative"],
    )
    def test_bad_input_is_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
