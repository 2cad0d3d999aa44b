"""Acceptance suite: one test per shipped guarantee, each with a stated
runtime budget and tolerance.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see one PASS/FAIL line per criterion."""

import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from coindice import (
    ProbabilityVector,
    build_canonical,
    build_from_discrete,
    build_from_uniform,
    check_optimal,
    enumerate_uniform,
    exact_expected_flips,
    flip_distribution,
    verify_bounds,
)
from coindice.cli import main
from coindice.ddg import DdgTree, census, expansion_bit
from coindice.discrete import _die, ceil_log2
from conftest import dyadic_suite, level_multisets, walk

_RESULTS: list[tuple[str, bool, float]] = []


@pytest.fixture(scope="module", autouse=True)
def _summary():
    yield
    print()
    for name, ok, elapsed in _RESULTS:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed * 1000:.1f} ms)")


def _criterion(name: str, budget_s: float):
    """Record and enforce the pass line and runtime budget of one check."""

    class _Recorder:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            _RESULTS.append((name, exc_type is None and elapsed < budget_s, elapsed))
            if exc_type is None:
                assert elapsed < budget_s, f"{name} took {elapsed:.3f}s, budget {budget_s}s"

    return _Recorder()


def _best_of(repeats, fn):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def test_criterion_01_exact_expected_flips_five_sided():
    with _criterion("criterion 01: E[N] for the 5-sided die is exactly 18/5", 1.0):
        value, best = _best_of(5, lambda: exact_expected_flips(5))
        assert value == Fraction(18, 5)
        assert best < 0.001, f"solver took {best * 1000:.3f} ms, budget 1 ms"


def test_criterion_02_bounds_sweep_to_4096():
    with _criterion("criterion 02: ceil(log2 n) <= E[N] <= ceil(log2 n)+1 for n <= 4096", 10.0):
        report = verify_bounds(4096)  # raises BoundViolation on any miss
        assert len(report.rows) == 4096


def test_criterion_03_known_three_outcome_tree():
    with _criterion("criterion 03: optimal vs flat tree for (3/8, 1/2, 1/8)", 1.0):
        p = ProbabilityVector(["3/8", "1/2", "1/8"])
        flat = DdgTree(
            {
                "": None, "0": None, "1": None,
                "00": None, "01": None, "10": None, "11": None,
                "000": 1, "001": 1, "010": 2, "011": 1,
                "100": 2, "101": 2, "110": 2, "111": 3,
            },
            3,
        )

        def check():
            tree = build_canonical(p, 3)
            fd = flip_distribution(tree)
            good = check_optimal(tree, p)
            bad = check_optimal(flat, p)
            return fd, good, bad

        (fd, good, bad), best = _best_of(5, check)
        assert fd.mass == {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
        assert fd.residual == 0
        assert good.ok
        assert not bad.ok
        assert best < 0.001, f"took {best * 1000:.3f} ms, budget 1 ms"


def test_criterion_04_five_sided_state_layout():
    with _criterion("criterion 04: 5-sided state tree reproduces the known layout", 1.0):
        grouped = level_multisets(walk(_die(5), 6)[0])
        assert grouped[0] == Counter({(1, 1): 1})
        assert grouped[1] == Counter({(1, 2): 1, (2, 2): 1})
        assert grouped[2] == Counter({(1, 4): 1, (3, 4): 1, (2, 4): 1, (4, 4): 1})
        assert grouped[3] == Counter(
            {
                (1, 5): 1, (5, 5): 1, (3, 5): 1, (2, 3): 1,
                (2, 5): 1, (1, 3): 1, (4, 5): 1, (3, 3): 1,
            }
        )
        assert grouped[4] == Counter(
            {(2, 5): 1, (5, 5): 1, (1, 5): 1, (4, 5): 1, (3, 5): 1, (1, 1): 1}
        )
        # the lone live path restarts from scratch
        assert grouped[5] == grouped[1]
        assert grouped[6] == grouped[2]


def test_criterion_05_uniformity_oracle():
    with _criterion("criterion 05: exact uniformity at depth 16 for n = 1..10", 30.0):
        for n in range(1, 11):
            result = enumerate_uniform(n, 16)
            assert len(result.outcome_mass) == n
            assert len(set(result.outcome_mass.values())) == 1, n
            assert result.live_mass < Fraction(1, 2**10), n


def test_criterion_06_conditional_uniformity_given_m():
    with _criterion("criterion 06: x is exactly uniform within every m-group", 30.0):
        for n in (2, 3, 5, 7):
            states = walk(_die(n), 12)[0]
            for depth in range(13):
                groups: dict[int, dict[int, Fraction]] = {}
                for history, state in states.items():
                    if len(history) != depth:
                        continue
                    group = groups.setdefault(state.m, {})
                    group[state.x] = group.get(state.x, Fraction(0)) + Fraction(
                        1, 1 << depth
                    )
                for m, masses in groups.items():
                    assert set(masses) == set(range(1, m + 1)), (n, depth, m)
                    assert len(set(masses.values())) == 1, (n, depth, m)


def test_criterion_07_census_matches_expansion_bits():
    with _criterion("criterion 07: every leaf census equals the expansion bits", 60.0):
        for n in range(1, 65):
            depth = 2 * ceil_log2(n) + 8
            tree = build_from_uniform(n, depth)
            counts = census(tree)
            assert all(c == 1 for c in counts.values()), n
            q = Fraction(1, n)
            for level in range(depth + 1):
                bit = expansion_bit(q, level)
                for outcome in range(1, n + 1):
                    assert counts.get((level, outcome), 0) == bit, (n, level, outcome)
        for p in dyadic_suite():
            tree = build_from_discrete(p, 12)
            counts = census(tree)
            assert all(c == 1 for c in counts.values())
            for level in range(13):
                for outcome in range(1, len(p) + 1):
                    assert counts.get((level, outcome), 0) == expansion_bit(
                        p.probs[outcome - 1], level
                    ), (p, level, outcome)


def test_criterion_08_builders_agree():
    with _criterion("criterion 08: canonical and trie-walk builders give equal censuses", 60.0):
        for p in dyadic_suite():
            algo = census(build_from_discrete(p, 12))
            canonical = census(build_canonical(p, 12))
            assert algo == canonical, p


def test_criterion_09_chi_square_sanity(capsys):
    with _criterion("criterion 09: chi-square passes for at least 3 of 4 seeds", 10.0):
        seeds = (9, 17, 23, 42)
        passing = 0
        for seed in seeds:
            codes = [
                main(["chisq", "--die", str(n), "--count", "100000", "--seed", str(seed)])
                for n in (2, 5, 6, 12)
            ]
            passing += all(code == 0 for code in codes)
        capsys.readouterr()
        assert passing >= 3, f"only {passing} of 4 seeds passed"


def test_criterion_10_recycler_beats_naive_rejection(capsys):
    with _criterion("criterion 10: measured flips/roll near 3.6 and below naive", 30.0):
        code = main(["bench", "--die", "5", "--count", "1000000", "--seed", "2024", "--json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        recycler_rate, naive_rate = row["recycler_flips_per_roll"], row["naive_flips_per_roll"]
        assert abs(recycler_rate - 3.6) / 3.6 < 0.01
        assert recycler_rate < naive_rate
