"""Command-line front end.

Subcommands: sample, analyze, tree, oracle-dump, chisq, bench.  Data
goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage
error, 2 check failure.  Given a fixed --seed, the data output of every
command except the wall-clock parts of bench is byte-identical between
runs.
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import analysis, ddg, gof, oracle
from .bitsource import BitSource, SeededSource
from .discrete import InvalidDistribution, ProbabilityVector, _levels, parse_distribution, sample
from .uniform import _die_levels, roll, roll_many

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_target_options(parser, dist_help="exact distribution, e.g. 3/8,1/2,1/8"):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--die", type=int, metavar="N", help="fair die with N sides")
    group.add_argument("--dist", metavar="P", help=dist_help)


def _target(args) -> tuple[int | None, ProbabilityVector | None]:
    if args.die is not None:
        if args.die < 1:
            raise UsageError(f"--die must be >= 1, got {args.die}")
        return args.die, None
    try:
        return None, parse_distribution(args.dist)
    except InvalidDistribution as exc:
        raise UsageError(str(exc)) from exc


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def cmd_sample(args) -> int:
    n, p = _target(args)
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    source = SeededSource(args.seed)
    if p is None:
        rolls = roll_many(n, args.count, source)
    else:
        rolls = [sample(p, source) for _ in range(args.count)]
    for r in rolls:
        if args.show_flips:
            print(f"{r.outcome} {r.flips}")
        else:
            print(r.outcome)
    total = sum(r.flips for r in rolls)
    floor = math.log2(n) if p is None else analysis.entropy(p)
    print(
        f"# total_flips={total} flips_per_roll={total / len(rolls):.4f} "
        f"entropy_floor={floor:.4f}"
    )
    return EXIT_OK


def _die_analysis(n: int, depth: int):
    expected = analysis.exact_expected_flips(n)
    lower = analysis.ceil_log2(n)
    dist = analysis.flip_distribution_uniform(n, depth)
    return expected, lower, dist


def cmd_analyze(args) -> int:
    if args.sweep is not None:
        return _analyze_sweep(args)
    if args.die is None and args.dist is None:
        raise UsageError("one of --die, --dist or --sweep is required")
    n, p = _target(args)
    if args.depth is not None:
        _check_cli_depth(args.depth)
    if p is None:
        # the sequential float sum analysis.entropy does, without n Fractions
        x = 1 / n
        t = x * math.log2(x)
        ent = 0.0
        for _ in range(n):
            ent -= t
        depth = args.depth if args.depth is not None else 2 * analysis.ceil_log2(n) + 8
        expected, lower, dist = _die_analysis(n, depth)
        exact = True
    else:
        ent = analysis.entropy(p)
        depth = args.depth if args.depth is not None else 16
        dist = ddg.flip_distribution(ddg.build_canonical(p, depth))
        exact = dist.residual == 0
        expected = dist.expectation() if exact else dist.partial_expectation()
        lower = None
    if args.json:
        payload = {
            "expected_num": expected.numerator,
            "expected_den": expected.denominator,
            "expected": float(expected),
            "expected_exact": exact,
            "entropy": ent,
            "depth": depth,
            "residual_num": dist.residual.numerator,
            "residual_den": dist.residual.denominator,
            "flip_distribution": [
                {"flips": j, "num": q.numerator, "den": q.denominator}
                for j, q in sorted(dist.mass.items())
            ],
        }
        if n is not None:
            payload["n"] = n
            payload["lower"] = lower
            payload["upper"] = lower + 1
        print(json.dumps(payload))
        return EXIT_OK
    if n is not None:
        print(f"n = {n}")
        print(f"E[N] = {_frac(expected)} = {float(expected)}")
        print(f"bounds [{lower}, {lower + 1}]")
    else:
        kind = "exact" if exact else f"truncated at depth {depth}"
        print(f"distribution = {','.join(_frac(q) for q in p)}")
        print(f"E[N] = {_frac(expected)} = {float(expected)} ({kind})")
    print(f"entropy = {ent:.4f} bits")
    print(f"flip distribution (depth {depth}):")
    for j, q in sorted(dist.mass.items()):
        print(f"  N={j}  {_frac(q)}  {float(q)}")
    if dist.residual:
        print(f"  residual beyond depth {depth}: {_frac(dist.residual)}")
    return EXIT_OK


def _analyze_sweep(args) -> int:
    if args.sweep < 1:
        raise UsageError(f"--sweep must be >= 1, got {args.sweep}")
    report = analysis.verify_bounds(args.sweep)
    for row in report.rows:
        if args.json:
            print(
                json.dumps(
                    {
                        "n": row.n,
                        "expected_num": row.expected.numerator,
                        "expected_den": row.expected.denominator,
                        "lower": row.lower,
                        "upper": row.upper,
                    }
                )
            )
        else:
            print(
                f"n={row.n} E[N]={_frac(row.expected)} "
                f"lower={row.lower} upper={row.upper}"
            )
    n_min, slack_min = report.min_upper_slack
    n_max, slack_max = report.max_upper_slack
    print(
        f"# all {report.n_max} sizes within bounds; "
        f"min upper slack {_frac(slack_min)} at n={n_min}, "
        f"max upper slack {_frac(slack_max)} at n={n_max}",
        file=sys.stderr,
    )
    return EXIT_OK


def _check_cli_depth(depth: int) -> None:
    if depth < 1:
        raise UsageError(f"--depth must be >= 1, got {depth}")


def cmd_tree(args) -> int:
    n, p = _target(args)
    if p is None:
        depth = args.depth if args.depth is not None else max(2 * analysis.ceil_log2(n) + 8, 1)
        _check_cli_depth(depth)
        tree = ddg.build_from_uniform(n, depth)
    else:
        depth = args.depth if args.depth is not None else 12
        _check_cli_depth(depth)
        tree = ddg.build_from_discrete(p, depth)
    sys.stdout.write(ddg.export_dot(tree))
    if args.check:
        try:
            probs = p if p is not None else ProbabilityVector([Fraction(1, n)] * n)
            verdict = ddg.check_optimal(tree, probs)
        except ddg.MassMismatch as exc:
            print(f"mass mismatch: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        if verdict.ok:
            print("optimal", file=sys.stderr)
        else:
            for violation in verdict.violations:
                print(f"violation: {violation}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_oracle_dump(args) -> int:
    n, p = _target(args)
    _check_cli_depth(args.depth)
    levels = _die_levels(n) if p is None else _levels(p)
    states, leaves, _ = oracle._expand(levels, args.depth)
    for history in sorted(states, key=lambda h: (len(h), h)):
        x, m = states[history]
        line = f'{len(history)} "{history}" ({x}, {m})'
        if history in leaves:
            line += f" -> {leaves[history]}"
        print(line)
    return EXIT_OK


def cmd_chisq(args) -> int:
    n, p = _target(args)
    outcomes = n if p is None else len(p)
    minimum = 50 * outcomes
    if args.count < minimum:
        raise UsageError(
            f"--count {args.count} too small: need at least 50 per category ({minimum})"
        )
    source = SeededSource(args.seed)
    counts = [0] * outcomes
    if p is None:
        for r in roll_many(n, args.count, source):
            counts[r.outcome - 1] += 1
    else:
        for _ in range(args.count):
            counts[sample(p, source).outcome - 1] += 1
    probs = [Fraction(1, n)] * n if p is None else p.probs
    result = gof.chi_square_test(counts, probs, significance=0.001)
    print(f"samples = {args.count}  seed = {args.seed}")
    print(f"chi-square = {result.statistic:.4f}  df = {result.df}  p-value = {result.p_value:.6f}")
    if result.passed:
        print("PASS at significance 0.001")
        return EXIT_OK
    print("FAIL at significance 0.001")
    return EXIT_CHECK_FAILED


def naive_rejection_roll(n: int, source: BitSource) -> tuple[int, int]:
    """Baseline die roll: draw ceil(log2 n) bits, retry on overflow,
    discarding all bits of a failed attempt.  Returns (outcome, flips)."""
    if n == 1:
        return 1, 0
    k = analysis.ceil_log2(n)
    flips = 0
    while True:
        value = 0
        for _ in range(k):
            value = (value << 1) | source.next_bit()
        flips += k
        if value < n:
            return value + 1, flips


def _bench_recycler(n: int, count: int, seed: int) -> tuple[float, float]:
    source = SeededSource(seed)
    start = time.perf_counter()
    roll_many(n, count, source)
    elapsed = time.perf_counter() - start
    return source.flips_consumed / count, elapsed


def _bench_naive(n: int, count: int, seed: int) -> tuple[float, float]:
    source = SeededSource(seed)
    start = time.perf_counter()
    for _ in range(count):
        naive_rejection_roll(n, source)
    elapsed = time.perf_counter() - start
    return source.flips_consumed / count, elapsed


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.die.split(",")]
    except ValueError as exc:
        raise UsageError(f"--die expects comma-separated integers: {exc}") from exc
    if any(n < 1 for n in sizes):
        raise UsageError("--die entries must be >= 1")
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    for n in sizes:
        expected = analysis.exact_expected_flips(n)
        k = analysis.ceil_log2(n)
        naive_expected = k * Fraction(1 << k, n) if n > 1 else Fraction(0)
        recycler_rate, recycler_time = _bench_recycler(n, args.count, args.seed)
        naive_rate, naive_time = _bench_naive(n, args.count, args.seed)
        if args.json:
            print(
                json.dumps(
                    {
                        "n": n,
                        "count": args.count,
                        "recycler_flips_per_roll": recycler_rate,
                        "recycler_expected": float(expected),
                        "naive_flips_per_roll": naive_rate,
                        "naive_expected": float(naive_expected),
                        "recycler_rolls_per_sec": args.count / recycler_time,
                        "naive_rolls_per_sec": args.count / naive_time,
                    }
                )
            )
        else:
            print(
                f"n={n} recycler_flips_per_roll={recycler_rate:.6f} "
                f"exact={float(expected)} naive_flips_per_roll={naive_rate:.6f} "
                f"naive_expected={float(naive_expected)}"
            )
        print(
            f"# n={n}: recycler {args.count / recycler_time:,.0f} rolls/s, "
            f"naive {args.count / naive_time:,.0f} rolls/s",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coindice",
        description="Entropy-optimal dice and discrete sampling from fair coin flips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw variates")
    _add_target_options(p_sample)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--show-flips", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    p_analyze = sub.add_parser("analyze", help="exact expected flips and distribution")
    group = p_analyze.add_mutually_exclusive_group(required=True)
    group.add_argument("--die", type=int, metavar="N")
    group.add_argument("--dist", metavar="P")
    group.add_argument("--sweep", type=int, metavar="N_MAX",
                       help="verify expected-flip bounds for all n up to N_MAX")
    p_analyze.add_argument("--depth", type=int, default=None)
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_tree = sub.add_parser("tree", help="export the sampler's DDG tree as DOT")
    _add_target_options(p_tree)
    p_tree.add_argument("--depth", type=int, default=None)
    p_tree.add_argument("--check", action="store_true",
                        help="verify optimality; exit 2 on violation")
    p_tree.set_defaults(func=cmd_tree)

    p_dump = sub.add_parser("oracle-dump", help="dump the exhaustive state tree")
    _add_target_options(p_dump)
    p_dump.add_argument("--depth", type=int, default=6)
    p_dump.set_defaults(func=cmd_oracle_dump)

    p_chisq = sub.add_parser("chisq", help="chi-square goodness-of-fit run")
    _add_target_options(p_chisq)
    p_chisq.add_argument("--count", type=int, required=True)
    p_chisq.add_argument("--seed", type=int, default=0)
    p_chisq.set_defaults(func=cmd_chisq)

    p_bench = sub.add_parser("bench", help="flips/roll and throughput vs naive rejection")
    p_bench.add_argument("--die", required=True, metavar="N[,N...]")
    p_bench.add_argument("--count", type=int, default=100_000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
