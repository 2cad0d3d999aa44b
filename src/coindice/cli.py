"""Command-line front end.

Subcommands: sample, analyze, tree, oracle-dump, chisq, bench.  Data
goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 any
error (one stderr line), 2 check failure.  Given a fixed --seed, the data
output of every command except the wall-clock parts of bench is
byte-identical between runs.
"""

import argparse
import json
import math
import signal
import sys
import time
from fractions import Fraction
from functools import cache, partial

# each command imports the analysis, ddg and gof modules it uses:
# a die roll loads none of them
from .bitsource import BitSource, SeededSource
from .discrete import (
    ProbabilityVector,
    _die,
    _exact,
    _frac,
    _roll,
    ceil_log2,
    parse_distribution,
    sample,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(text: str) -> int:
    """argparse type of every size, count and depth: an int >= 1."""
    try:
        value = int(text)
    except ValueError:  # keep argparse's wording, which would name this function
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positives(text: str) -> list[int]:
    """argparse type of a comma-separated list of sizes."""
    return [_positive(token) for token in text.split(",")]


def _add_target_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--die", type=_positive, metavar="N", help="fair die with N sides")
    group.add_argument("--dist", metavar="P", help="exact distribution, e.g. 3/8,1/2,1/8")
    return group


def _target(args) -> tuple[int | None, ProbabilityVector | None, tuple]:
    """(n, None, _die(n)) or (None, p, p._runs): one build, one check of n."""
    if args.dist is None:
        return args.die, None, _die(args.die)
    p = parse_distribution(args.dist)
    return None, p, p._runs


def _draws(n: int | None, p: ProbabilityVector | None, args):
    """Stream args.count variates of the target from one seeded source."""
    source = SeededSource(args.seed)
    draw = partial(_roll, n) if p is None else partial(sample, p)
    for _ in range(args.count):
        yield draw(source)


def cmd_sample(args) -> int:
    n, p, _ = _target(args)
    write = sys.stdout.write  # read per call: callers may redirect stdout
    total = 0
    for r in _draws(n, p, args):
        total += r.flips
        write(f"{r.outcome} {r.flips}\n" if args.show_flips else f"{r.outcome}\n")
    if p is None:
        floor = math.log2(n)
    else:
        from . import analysis
        floor = analysis.entropy(p)
    print(
        f"# total_flips={total} flips_per_roll={total / args.count:.4f} "
        f"entropy_floor={floor:.4f}"
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.sweep is not None:
        return _analyze_sweep(args)
    from . import analysis, ddg
    n, p, record = _target(args)
    lower = ceil_log2(n) if p is None else None
    depth = args.depth or (2 * lower + 8 if p is None else 16)
    dist = ddg._flip_distribution(record, depth)
    exact = p is None or dist.residual == 0
    expected = analysis.exact_expected_flips(n) if p is None else dist.partial_expectation()
    ent = analysis._entropy(record)
    if args.json:
        payload = {
            "expected_num": _exact(expected.numerator),
            "expected_den": _exact(expected.denominator),
            "expected": float(expected),
            "expected_exact": exact,
            "entropy": ent,
            "depth": depth,
            "residual_num": _exact(dist.residual.numerator),
            "residual_den": _exact(dist.residual.denominator),
            "flip_distribution": [
                {"flips": j, "num": _exact(q.numerator), "den": _exact(q.denominator)}
                for j, q in sorted(dist.mass.items())
            ],
        }
        if p is None:
            payload.update(n=n, lower=lower, upper=lower + 1)
        print(json.dumps(payload))
        return EXIT_OK
    if p is None:
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
    from . import analysis
    report = analysis.verify_bounds(args.sweep)
    for row in report.rows:
        if args.json:
            print(
                json.dumps(
                    {
                        "n": row.n,
                        "expected_num": _exact(row.expected.numerator),
                        "expected_den": _exact(row.expected.denominator),
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


def cmd_tree(args) -> int:
    from . import ddg
    n, p, record = _target(args)
    depth = args.depth or (2 * ceil_log2(n) + 8 if p is None else 12)
    levels = ddg._expand(record, depth)  # a walk past the budget stops before any output
    write = sys.stdout.write
    write("digraph ddg {\n")
    # leaves per (level, outcome); live nodes at the depth bound form the frontier
    counts = {}
    for j, (_, m, nodes) in enumerate(levels):
        frontier = {h for h, _, out in nodes if out is None} if j == depth else ()
        write("".join(ddg._dot(nodes, frontier)))
        for _, _, out in nodes:
            if out is not None:
                counts[j, out] = counts.get((j, out), 0) + 1
    write("}\n")
    if not args.check:
        return EXIT_OK
    try:
        verdict = ddg._verdict(counts, not m, depth, record)
    except ddg.MassMismatch as exc:
        print(f"mass mismatch: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    for line in [f"violation: {v}" for v in verdict.violations] or ["optimal"]:
        print(line, file=sys.stderr)
    return EXIT_OK if verdict.ok else EXIT_CHECK_FAILED


def cmd_oracle_dump(args) -> int:
    from . import ddg
    _, _, record = _target(args)
    for k, m, nodes in ddg._expand(record, args.depth):
        for history, x, outcome in nodes:
            if outcome is None:
                print(f'{len(history)} "{history}" ({x}, {m})')
            else:
                print(f'{len(history)} "{history}" ({x}, {k}) -> {outcome}')
    return EXIT_OK


def cmd_chisq(args) -> int:
    from . import gof
    n, p, _ = _target(args)
    outcomes = n if p is None else len(p)
    minimum = 50 * outcomes
    if args.count < minimum:
        raise UsageError(
            f"--count {args.count} too small: need at least 50 per category ({minimum})"
        )
    counts = [0] * outcomes
    for r in _draws(n, p, args):
        counts[r.outcome - 1] += 1
    probs = [Fraction(1, n)] * n if p is None else p.probs
    result = gof.chi_square_test(counts, probs, significance=0.001)
    print(f"samples = {args.count}  seed = {args.seed}")
    print(f"chi-square = {result.statistic:.4f}  df = {result.df}  p-value = {result.p_value:.6f}")
    print(f"{'PASS' if result.passed else 'FAIL'} at significance 0.001")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def naive_rejection_roll(n: int, source: BitSource) -> tuple[int, int]:
    """Baseline die roll: draw ceil(log2 n) bits, retry on overflow,
    discarding all bits of a failed attempt.  Returns (outcome, flips)."""
    k = ceil_log2(n)
    next_bit = source.next_bit
    flips = 0
    while True:
        value = 0
        for _ in range(k):
            value = (value << 1) | next_bit()
        flips += k
        if value < n:
            return value + 1, flips


def _bench(roll_one, n: int, count: int, seed: int) -> tuple[float, float]:
    """Flips per roll and seconds taken by ``count`` seeded ``roll_one(n, source)``."""
    source = SeededSource(seed)
    start = time.perf_counter()
    for _ in range(count):
        roll_one(n, source)
    return source.flips_consumed / count, time.perf_counter() - start


def cmd_bench(args) -> int:
    from . import analysis
    expectations = [analysis.exact_expected_flips(n) for n in args.die]  # every n and budget first
    for n, expected in zip(args.die, expectations):
        k = ceil_log2(n)
        naive_expected = k * Fraction(1 << k, n)
        recycler_rate, recycler_time = _bench(_roll, n, args.count, args.seed)
        naive_rate, naive_time = _bench(naive_rejection_roll, n, args.count, args.seed)
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


@cache  # built on the first main call, not at import; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coindice",
        description="Entropy-optimal dice and discrete sampling from fair coin flips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw variates")
    _add_target_options(p_sample)
    p_sample.add_argument("--count", type=_positive, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--show-flips", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    p_analyze = sub.add_parser("analyze", help="exact expected flips and distribution")
    group = _add_target_options(p_analyze)
    group.add_argument("--sweep", type=_positive, metavar="N_MAX",
                       help="verify expected-flip bounds for all n up to N_MAX")
    p_analyze.add_argument("--depth", type=_positive)
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_tree = sub.add_parser("tree", help="export the sampler's DDG tree as DOT")
    _add_target_options(p_tree)
    p_tree.add_argument("--depth", type=_positive)
    p_tree.add_argument("--check", action="store_true",
                        help="verify optimality; exit 2 on violation")
    p_tree.set_defaults(func=cmd_tree)

    p_dump = sub.add_parser("oracle-dump", help="dump the exhaustive state tree")
    _add_target_options(p_dump)
    p_dump.add_argument("--depth", type=_positive, default=6)
    p_dump.set_defaults(func=cmd_oracle_dump)

    p_chisq = sub.add_parser("chisq", help="chi-square goodness-of-fit run")
    _add_target_options(p_chisq)
    p_chisq.add_argument("--count", type=int, required=True)
    p_chisq.add_argument("--seed", type=int, default=0)
    p_chisq.set_defaults(func=cmd_chisq)

    p_bench = sub.add_parser("bench", help="flips/roll and throughput vs naive rejection")
    p_bench.add_argument("--die", type=_positives, required=True, metavar="N[,N...]")
    p_bench.add_argument("--count", type=_positive, default=100_000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # SystemExit (--help) and KeyboardInterrupt pass
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout then ends the process quietly, status 141
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
