"""Fuzz of the CLI grammar, in-process: every argv exits 0, 1 or 2, and an
exit 1 prints exactly one stderr line.

Argv is built from the grammar of every subcommand, with both target
kinds, malformed --dist tokens and JSON, zero and negative sizes, and
sizes up to 2^80 where the command stays cheap: ``sample``, ``tree`` and
``oracle-dump`` at any depth up to 10^9 or their default one (the trie
walk's budget bounds them), and ``analyze`` and ``bench`` of a power of
two times an odd factor below 16 or at least 2^50, and ``analyze`` at
depths up to 12 or past its depth budget (the period and depth budgets
bound them).  ``chisq`` runs over small targets with counts near 50 per
outcome, and over dice up to 2^80 with counts up to 10^4: a die too big
for its count is refused before any draw, so at most 10^4 draws run.
No run prints a traceback, and a ``chisq`` run at most one stderr line.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from coindice.ddg import DEPTH_BUDGET
from coindice.cli import main

BAD_SIZES = st.one_of(
    st.integers(-3, 0).map(str), st.sampled_from(["abc", "1.5", "", "0x10", "1e3", "--"])
)


def sizes(largest: int):
    """Text of a size flag: mostly in 1..largest, sometimes not an int >= 1."""
    good = st.integers(1, largest).map(str)
    return st.one_of(good, good, BAD_SIZES)


def _fractions(weights: list[int]) -> str:
    total = sum(weights) or 1
    return ",".join(str(Fraction(w, total)) for w in weights)


def _json(weights: list[int]) -> str:
    total = sum(weights) or 1
    return json.dumps([{"num": w, "den": total} for w in weights])


WEIGHTS = st.lists(st.integers(0, 12), min_size=1, max_size=6)
MALFORMED = st.sampled_from(
    [
        "1/0,1",
        "abc",
        "",
        ",",
        "1/2,",
        "0.5,0.5",
        "-1/2,3/2",
        "1/2,1/3",
        "1/3,2/3,0",
        "[",
        "[{}]",
        "[1, 2]",
        '{"num": 1, "den": 1}',
        '[{"num": 1, "den": 0}]',
        '[{"num": true, "den": 1}]',
        '[{"num": -1, "den": 2}, {"num": 3, "den": 2}]',
        '[{"num": 1.0, "den": 1}]',
        "[" * 1000,
    ]
)
DISTS = st.one_of(WEIGHTS.map(_fractions), WEIGHTS.map(_json), MALFORMED, st.text(max_size=8))


def target(largest: int):
    return st.one_of(
        st.tuples(st.just("--die"), sizes(largest)), st.tuples(st.just("--dist"), DISTS)
    ).map(list)


def option(name: str, values):
    """A flag that is always given: [name, value]."""
    return values.map(lambda value: [name, value])


def flag(name: str, values):
    """[name, value], or now and then [] for a flag left out."""
    given = option(name, values)
    return st.one_of(given, given, given, st.just([]))


def switch(name: str):
    return st.sampled_from([[], [name]])


SEEDS = st.one_of(st.integers(-(2**70), 2**70).map(str), st.just("x"))
BIG = 2**80
# a power of two times a small odd factor: its period stays short
ANALYZABLE = st.builds(
    lambda odd, k: str(odd << k), st.integers(0, 7).map(lambda i: 2 * i + 1), st.integers(0, 80)
)
# a power of two times an odd factor of at least 2^50: the period budget
# refuses it in under 1 s, unless its period is short
BIG_ODD = st.builds(
    lambda odd, k: str(odd << k), st.integers(2**50, 2**80).map(lambda v: v | 1), st.integers(0, 30)
)
# shallow, or past the depth budget, which refuses it at once
ANALYZE_DEPTHS = st.one_of(sizes(12), st.integers(DEPTH_BUDGET + 1, 10**9).map(str))


def command(name: str, *parts):
    return st.tuples(st.just([name]), *parts).map(lambda pieces: sum(pieces, []))


SAMPLE = command(
    "sample",
    target(BIG),
    flag("--count", sizes(20)),
    flag("--seed", SEEDS),
    switch("--show-flips"),
)
ANALYZE = command(
    "analyze",
    st.one_of(
        target(300),
        option("--die", ANALYZABLE),
        option("--die", BIG_ODD),
        option("--sweep", sizes(40)),
    ),
    flag("--depth", ANALYZE_DEPTHS),
    switch("--json"),
)
# shallow trees of big dice finish and print a graph
TREE = command("tree", target(BIG), option("--depth", sizes(2)), switch("--check")) | command(
    "tree", target(64), flag("--depth", sizes(10)), switch("--check")
)
ORACLE = command("oracle-dump", target(BIG), flag("--depth", sizes(2))) | command(
    "oracle-dump", target(64), flag("--depth", sizes(8))
)
# the walk budget ends any deeper walk with one error line
DEEP = st.one_of(sizes(10**9), st.integers(1, 3000).map(str))
DEEP_WALKS = command("tree", target(BIG), flag("--depth", DEEP), switch("--check")) | command(
    "oracle-dump", target(BIG), flag("--depth", DEEP)
)
# at least 50 draws per outcome, so most runs reach the test
CHISQ_COUNTS = st.one_of(st.integers(400, 600).map(str), st.integers(-5, 600).map(str), BAD_SIZES)
CHISQ = command("chisq", target(8), flag("--count", CHISQ_COUNTS), flag("--seed", SEEDS))
# a large die: refused at any count up to 10^4 past 200 sides
CHISQ_BIG = command(
    "chisq",
    option("--die", st.one_of(sizes(200), sizes(BIG))),
    flag("--count", st.one_of(sizes(10**4), st.integers(5000, 10**4).map(str))),
    flag("--seed", SEEDS),
)
# bench's default count, 100000 rolls per size, takes too long here
BENCH = command(
    "bench",
    flag("--die", st.lists(sizes(40) | ANALYZABLE | BIG_ODD, min_size=1, max_size=3).map(",".join)),
    option("--count", sizes(30)),
    flag("--seed", SEEDS),
    switch("--json"),
)
# tokens a user may add by mistake: an unknown flag, a second target, a stray word
MISTAKES = st.sampled_from([["--bogus"], ["--die", "3"], ["--dist", "1/2,1/2"], ["extra"]])
NOISE = st.one_of(st.just([]), st.just([]), st.just([]), MISTAKES)
ARGV = st.tuples(
    st.one_of(SAMPLE, ANALYZE, TREE, ORACLE, DEEP_WALKS, CHISQ, CHISQ_BIG, BENCH), NOISE
).map(lambda pair: pair[0] + pair[1])


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_every_argv_exits_0_1_or_2_with_one_error_line(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if argv[0] == "chisq":
        assert err.getvalue().count("\n") <= 1
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
