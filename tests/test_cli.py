import argparse
import hashlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import coindice
from coindice import analysis, cli, ddg, discrete
from coindice.cli import main, naive_rejection_roll
from coindice import ProbabilityVector, SeededSource, entropy, exact_expected_flips
from coindice.discrete import TracedRoll
from coindice.ddg import DdgTree
from conftest import HUGE_DIE, shallowest_leaf, split_shallowest_leaf, tree_levels, uniform_probs
from reference import ReplaySource

HUGE = "7" * 5001  # past Python's default 4300-digit int/str limit


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


class _Digest(io.TextIOBase):
    """A stdout that keeps only the sha256 and the length of what it is sent."""

    def __init__(self):
        self.sha256, self.size = hashlib.sha256(), 0

    def write(self, text):
        data = text.encode()
        self.sha256.update(data)
        self.size += len(data)
        return len(text)


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

    @pytest.mark.parametrize("target", [["--die", "6"], ["--dist", "1/3,1/5,7/15"]])
    def test_output_streams_in_bounded_memory(self, target):
        tracemalloc.start()
        try:
            with redirect_stdout(_Discard()):
                code = main(["sample", *target, "--count", "100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20


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

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 257, 4099])
    def test_die_entropy_equals_the_distribution_entropy(self, capsys, n):
        code, out, _ = run_cli(capsys, "analyze", "--die", str(n), "--json")
        assert code == 0
        probs = uniform_probs(n)
        assert json.loads(out)["entropy"] == entropy(probs)

    def test_die_past_2_64_finishes_at_64_bits_of_entropy(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "analyze", "--die", str(HUGE_DIE), "--json")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert abs(json.loads(out)["entropy"] - 64) < 1e-9

    def test_parts_past_the_digit_limit_print_in_hex(self, capsys):
        expected = exact_expected_flips(100003)
        code, out, err = run_cli(capsys, "analyze", "--die", "100003", "--json")
        assert code == 0 and "Traceback" not in err
        payload = json.loads(out)
        parts = payload["expected_num"], payload["expected_den"]
        assert all(part.startswith("0x") for part in parts)
        assert Fraction(*(int(part, 16) for part in parts)) == expected
        code, out, err = run_cli(capsys, "analyze", "--die", "100003")
        assert code == 0 and "Traceback" not in err
        line = out.splitlines()[1]
        assert line.startswith("E[N] = 0x")
        num, den = line.split()[2].split("/")
        assert Fraction(int(num, 16), int(den, 16)) == expected

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

    def test_sweep_summary_names_the_slack_extremes(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--sweep", "64")
        assert code == 0
        assert err == (
            "# all 64 sizes within bounds; min upper slack 7/129 at n=43, "
            "max upper slack 1/1 at n=1\n"
        )


@pytest.mark.parametrize("command", ["sample", "analyze", "tree", "oracle-dump", "chisq"])
def test_every_target_command_describes_dist(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    dist = next(line for line in lines if line.lstrip().startswith("--dist P"))
    assert dist.split("--dist P", 1)[1].strip() == "exact distribution, e.g. 3/8,1/2,1/8"


class TestTree:
    def test_check_optimal_die(self, capsys):
        code, out, err = run_cli(capsys, "tree", "--die", "5", "--depth", "6", "--check")
        assert code == 0
        assert out.startswith("digraph")
        assert "optimal" in err

    def test_check_die_builds_no_probability_vector(self, capsys, monkeypatch):
        # the die is checked as its one run, not as n Fractions
        def refuse(self, entries):
            raise AssertionError("tree --die --check built a ProbabilityVector")

        monkeypatch.setattr(ProbabilityVector, "__init__", refuse)
        code, _, err = run_cli(capsys, "tree", "--die", "100003", "--depth", "1", "--check")
        assert code == 0
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

    def patch_tree(self, monkeypatch, change):
        # tree reads the walk's stream of levels: feed it a changed tree's levels
        expand = ddg._expand

        def changed(record, depth):
            nodes = {h: out for _, _, level in expand(record, depth) for h, _, out in level}
            return tree_levels(change(DdgTree(nodes, depth)))

        monkeypatch.setattr(ddg, "_expand", changed)

    def test_relabelled_leaf_is_a_mass_mismatch(self, capsys, monkeypatch):
        def relabel(tree):
            history, outcome = shallowest_leaf(tree)
            tree.nodes[history] = outcome + 1
            return tree

        self.patch_tree(monkeypatch, relabel)
        code, out, err = run_cli(capsys, "tree", "--die", "3", "--check")
        assert code == 2
        assert out.startswith("digraph")
        assert err == "mass mismatch: outcome 2 has leaf mass 2389/4096 exceeding 1/3\n"

    def test_split_leaf_is_a_violation(self, capsys, monkeypatch):
        self.patch_tree(monkeypatch, split_shallowest_leaf)
        code, out, err = run_cli(capsys, "tree", "--die", "3", "--check")
        assert code == 2
        assert out.startswith("digraph")
        assert "violation: outcome 1 appears 2 times at level 3\n" in err
        assert "optimal" not in err


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

    def test_biased_roller_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_roll", lambda n, source: TracedRoll(1, 0))
        code, out, _ = run_cli(capsys, "chisq", "--die", "6", "--count", "300")
        assert code == 2
        assert out.endswith("FAIL at significance 0.001\n")

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
            ["analyze", "--sweep", "0"],
            ["analyze", "--sweep", "-3"],
            ["sample", "--dist", f"1/{HUGE},1"],
            ["sample", "--dist", f'[{{"num": {HUGE}, "den": 1}}]'],
            ["sample", "--dist", f"1/{10**3999 + 1},1/{10**3999 + 2}"],
            ["sample", "--dist", "[" * 1000],
        ],
        ids=[
            "zero-den",
            "json-zero-den",
            "json-bool",
            "dist-depth-0",
            "die-depth-negative",
            "sweep-0",
            "sweep-negative",
            "huge-int",
            "json-huge-int",
            "huge-sum",
            "deep-json",
        ],
    )
    def test_bad_input_is_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sample", "--die", "0"], "--die"),
            (["sample", "--die", "6", "--count", "0"], "--count"),
            (["bench", "--die", "6", "--count", "-1"], "--count"),
            (["analyze", "--die", "5", "--depth", "0"], "--depth"),
            (["tree", "--dist", "1/2,1/2", "--depth", "0"], "--depth"),
            (["oracle-dump", "--die", "5", "--depth", "-2"], "--depth"),
            (["analyze", "--sweep", "0"], "--sweep"),
            (["bench", "--die", "0"], "--die"),
            (["bench", "--die", "5,0"], "--die"),
        ],
    )
    def test_range_error_names_its_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: argument {flag}: must be >= 1") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sample", "--die", "abc"], "--die"),
            (["sample", "--die", "6", "--count", "1.5"], "--count"),
            (["tree", "--die", "5", "--depth", "x"], "--depth"),
        ],
    )
    def test_non_int_error_names_its_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: argument {flag}: invalid int value: {argv[-1]!r}\n"
        assert "Traceback" not in err


class TestErrorBoundary:
    """main turns any exception into exit 1 and one stderr line."""

    def test_memory_error_is_named_by_its_type(self, capsys, monkeypatch):
        def exhausted(n):
            raise MemoryError()

        monkeypatch.setattr(analysis, "exact_expected_flips", exhausted)
        assert run_cli(capsys, "analyze", "--die", "5") == (1, "", "error: MemoryError\n")

    def test_library_error_prints_its_message(self, capsys, monkeypatch):
        def overflow(record, depth):
            raise OverflowError("too big")

        monkeypatch.setattr(ddg, "_expand", overflow)
        assert run_cli(capsys, "tree", "--die", "5") == (1, "", "error: too big\n")


class TestWalkBudget:
    """A trie walk past ``ddg.WALK_BUDGET`` history characters ends at
    once with exit 1 and one stderr line that names the budget, and a
    complete tree costs the same at any depth bound.  The time limits are
    wide margins over runs of about 0.1 s: they catch a walk or a check
    that grows with the depth bound, not a slow machine."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--die", str(2**80)],
            ["oracle-dump", "--die", "1000003", "--depth", "60"],
            ["tree", "--dist", "1/3,2/3", "--depth", "100000000"],
        ],
        ids=["tree-default-depth", "oracle-dump-deep", "tree-deep"],
    )
    def test_walk_past_the_budget_exits_1_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 10
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: trie walk to depth ")
        assert f"walk budget of {ddg.WALK_BUDGET} history characters" in err

    @pytest.mark.parametrize("target", [["--die", "2"], ["--dist", "1/2,1/2"]], ids=["die", "dist"])
    def test_check_of_a_complete_tree_stops_at_its_deepest_leaf(self, capsys, target):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "tree", *target, "--depth", "1000000000", "--check")
        assert time.perf_counter() - start < 10
        assert (code, err) == (0, "optimal\n")
        assert 'r1 [shape=box, label="2"];' in out


class TestStreamedWalk:
    """``tree`` and ``oracle-dump`` write the walk level by level as it
    goes, after a budget check that reads the level counts alone, so
    neither holds the whole walk.  Their outputs are too large for the
    golden corpus, so their digests are pinned here."""

    def traced(self, *argv):
        """Exit code, stderr, stdout digest and tracemalloc peak of one call."""
        cli.build_parser()  # the parser is built once per process, not per command
        out, err = _Digest(), io.StringIO()
        tracemalloc.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, err.getvalue(), out, peak

    def test_a_refused_walk_allocates_nothing(self):
        code, err, out, peak = self.traced("oracle-dump", "--die", "1000003", "--depth", "40")
        assert code == 1
        assert "walk budget" in err
        assert out.size == 0
        assert peak < 1 << 20

    def test_tree_check_holds_one_level(self):
        code, err, _, peak = self.traced("tree", "--die", "1000", "--check")
        assert (code, err) == (0, "optimal\n")
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "argv, digest, size, err",
        [
            (
                "tree --die 1000 --check",
                "7dad272365ac00a7f26d0486823c093433ad055abbcbd20c6b48d5336719c363",
                1_656_881,
                "optimal\n",
            ),
            (
                "oracle-dump --die 1000 --depth 30",
                "d7459ae11c57de45637a2cf9d591060fa253c672ecab12511cfbc9c3528a1cb4",
                736_071,
                "",
            ),
        ],
        ids=["tree", "oracle-dump"],
    )
    def test_large_output_is_pinned(self, argv, digest, size, err):
        out = _Digest()
        with redirect_stdout(out), redirect_stderr(io.StringIO()) as stderr:
            code = main(argv.split())
        assert (code, stderr.getvalue()) == (0, err)
        assert (out.sha256.hexdigest(), out.size) == (digest, size)


class TestAnalysisBudgets:
    """``analyze`` and ``bench`` past ``analysis.PERIOD_BUDGET``,
    ``ddg.DEPTH_BUDGET`` or ``analysis.SWEEP_BUDGET`` exit 1 with one
    stderr line that names the budget.  The time limit is a wide margin
    over runs of under 0.5 s."""

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (["analyze", "--die", str(10**30)], "period budget of 2097152 bits"),
            (["bench", "--die", str(10**30), "--count", "1"], "period budget of 2097152 bits"),
            # every size is checked before the first one prints
            (["bench", "--die", f"5,{10**30}", "--count", "1"], "period budget of 2097152 bits"),
            (["analyze", "--die", "3", "--depth", str(10**9)], "depth budget of 16384 levels"),
            (["analyze", "--dist", "1/3,2/3", "--depth", str(10**9)], "depth budget of 16384 levels"),
            (["analyze", "--sweep", str(10**9)], "sweep budget of 32768 sizes"),
            (["analyze", "--sweep", "32769", "--json"], "sweep budget of 32768 sizes"),
        ],
        ids=[
            "analyze-period",
            "bench-period",
            "bench-second-size",
            "analyze-die-depth",
            "analyze-dist-depth",
            "analyze-sweep",
            "analyze-sweep-edge",
        ],
    )
    def test_work_past_a_budget_exits_1_at_once(self, capsys, argv, budget):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 10
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert budget in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_console_entry_ends_quietly_when_the_reader_closes_the_pipe():
    # run(), the console entry point, restores the default SIGPIPE action;
    # 200000 lines outrun the pipe buffer, so a write follows the close
    src = os.path.dirname(os.path.dirname(coindice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["sample", "--die", "6", "--count", "200000", "--seed", "1"]
    with subprocess.Popen(
        [sys.executable, "-m", "coindice.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first in {b"%d\n" % side for side in range(1, 7)}
    assert code == -signal.SIGPIPE
    assert err == b""


class TestSidesCheckedOnce:
    """A die command checks n once, not once per roll."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--die", "6", "--count", "40", "--seed", "3", "--show-flips"],
            ["chisq", "--die", "6", "--count", "300", "--seed", "3"],
        ],
        ids=["sample", "chisq"],
    )
    def test_die_command_checks_sides_once(self, capsys, monkeypatch, argv):
        expected = run_cli(capsys, *argv)
        calls = []
        monkeypatch.setattr(discrete, "_check_sides", calls.append)
        assert run_cli(capsys, *argv) == expected
        assert calls == [6]

    def test_bench_times_the_roller_that_checks_no_sides(self, capsys, monkeypatch):
        # exact_expected_flips checks each n before any roll is timed
        argv = ["bench", "--die", "6,257", "--count", "300", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out.count("\n")) == (0, 2)
        calls = []
        monkeypatch.setattr(discrete, "_check_sides", calls.append)
        assert run_cli(capsys, *argv)[:2] == (0, out)  # rates go to stderr
        assert calls == []


def _quiet(argv, main=main) -> tuple[int, str]:
    """Exit code and sha256 of stdout, as the golden corpus records them."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture
def fresh_cli(monkeypatch):
    """coindice.cli imported afresh, and the prog of every parser built since."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    monkeypatch.delitem(sys.modules, "coindice.cli")
    monkeypatch.setattr(coindice, "cli", cli)  # restore the package attribute too
    fresh = importlib.import_module("coindice.cli")
    assert fresh is not cli
    return fresh, built


class TestParserReuse:
    """main(argv) runs many times in one process on a parser built once."""

    def test_golden_corpus_twice_between_failures(self):
        from test_cli_golden import GOLDEN

        def usage_error():
            assert _quiet(["sample", "--die", "0"])[0] == 1

        def invalid_distribution():
            assert _quiet(["sample", "--dist", "1/2,1/3"])[0] == 1

        def help_exit():
            with pytest.raises(SystemExit) as exc:
                _quiet(["sample", "--help"])
            assert exc.value.code == 0

        failures = [usage_error, invalid_distribution, help_exit]
        for _ in range(2):
            for i, command in enumerate(GOLDEN):
                assert _quiet(command.split()) == GOLDEN[command], command
                failures[i % len(failures)]()

    def test_import_builds_no_parser(self, fresh_cli):
        _, built = fresh_cli
        assert built == []

    def test_twenty_calls_build_the_parser_tree_once(self, fresh_cli):
        fresh, built = fresh_cli
        for _ in range(20):
            assert _quiet(["sample", "--die", "6"], fresh.main)[0] == 0
        assert built.count("coindice") == 1
        assert len(built) == len(set(built))
