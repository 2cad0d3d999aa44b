"""The four workloads: seeded requests, the call each op makes, and the
correctness check each op's output must pass.

A workload is one round of requests built from the workload seed.  Each
round holds the same mix for every seed (a seeded shuffle of a fixed
grid, with seeded bit streams and seeded random distributions), so runs
with different seeds measure the same amount of work.  The loop in
``run.py`` replays the round until time is up; for a fixed seed every
replay must reproduce the first round's outputs exactly.

``Request.run(tracer)`` is the timed part.  With a tracer it wraps every
call into coindice in a span and draws bits through a timed source.
``Request.check(output)`` runs between ops and is not timed.
"""

import hashlib
import io
import json
import math
import random
import re
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from tracer import Tracer


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Outcome:
    """What one op delivered, as the benchmark counts and fingerprints it."""

    samples: int
    flips: int
    digest: bytes
    # (target, category counts, exact probabilities) for the chi-square
    # check of small-K targets, run once per round outside the timed region
    tally: tuple | None = None


@dataclass
class Request:
    kind: str
    run: Callable
    check: Callable
    # the same work as ``run`` made as direct library calls (cli only);
    # the difference in time is the CLI's own cost
    direct: Callable | None = None
    # True when the op delivers variates, so its time counts in samples/s
    sampling: bool = True


def digest(*parts) -> bytes:
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).digest()


def expansion_bit(q: Fraction, j: int) -> int:
    """Bit j >= 1 of the binary expansion of q in [0, 1), by the
    benchmark's own arithmetic."""
    return ((q.numerator << j) // q.denominator) & 1


def check_canonical_masses(mass: dict, residual: Fraction, weighted, depth: int) -> None:
    """An optimal DDG tree has one leaf per set expansion bit, so
    P(N = j) is the number of outcomes with bit j set, times 2^-j.
    ``weighted`` lists (probability, number of outcomes that have it)."""
    for j in range(1, depth + 1):
        want = Fraction(sum(m * expansion_bit(q, j) for q, m in weighted), 1 << j)
        if mass.get(j, 0) != want:
            raise CheckFailed(f"P(N={j}) is {mass.get(j, 0)}, expansion bits give {want}")
    if any(j < 1 or j > depth for j in mass):
        raise CheckFailed(f"flip masses outside levels 1..{depth}")
    if sum(mass.values(), Fraction(0)) + residual != 1:
        raise CheckFailed("flip masses and residual do not sum to 1")


def entropy_bits(probs) -> float:
    return -sum(float(q) * math.log2(float(q)) for q in probs if q)


def random_nondyadic(rng: random.Random, outcomes: int) -> list[Fraction]:
    """Positive probabilities over an odd denominator, so none is dyadic."""
    den = rng.randrange(501, 2001, 2)
    cuts = sorted(rng.sample(range(1, den), outcomes - 1))
    return [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]


def _counts(outcomes, size: int) -> list[int]:
    counts = [0] * size
    for x in outcomes:
        counts[x - 1] += 1
    return counts


def _check_rolls(rolls, source, count: int, sides: int) -> tuple[list[int], int]:
    outcomes = [r.outcome for r in rolls]
    flips = sum(r.flips for r in rolls)
    if len(outcomes) != count:
        raise CheckFailed(f"asked for {count} variates, got {len(outcomes)}")
    if min(outcomes) < 1 or max(outcomes) > sides:
        raise CheckFailed(f"outcome outside 1..{sides}")
    if flips != source.flips_consumed:
        raise CheckFailed(f"rolls report {flips} flips, source handed out {source.flips_consumed}")
    return outcomes, flips


# ---------------------------------------------------------------- dice

DICE_SIDES = (6, 257, 1000003, 2**40 + 15)
DICE_COUNTS = tuple(round(16 * 2 ** (i / 3)) for i in range(16))  # 16 .. 512
CHI_SIDES = (6, 257)  # sizes with at least five expected hits per face


def dice_requests(lib, seed: int, data: dict) -> list[Request]:
    rng = random.Random(f"dice:{seed}")
    grid = [(n, k) for n in DICE_SIDES for k in DICE_COUNTS]
    rng.shuffle(grid)
    return [_dice_request(lib, n, k, rng.getrandbits(64)) for n, k in grid]


def _dice_request(lib, n: int, k: int, source_seed: int) -> Request:
    probs = [Fraction(1, n)] * n if n in CHI_SIDES else None

    def run(tr: Tracer | None):
        source = lib.cd.SeededSource(source_seed)
        if tr is None:
            return lib.cd.roll_many(n, k, source), source
        source = lib.TimedSource(source, tr)
        rolls = tr.call("uniform.roll_many", lib.cd.roll_many, n, k, source)
        tr.count("uniform.rolls", k)
        tr.count("uniform.useful_bits", k * math.log2(n))
        return rolls, source

    def check(output) -> Outcome:
        rolls, source = output
        outcomes, flips = _check_rolls(rolls, source, k, n)
        tally = (f"die{n}", _counts(outcomes, n), probs) if probs else None
        return Outcome(k, flips, digest(array("q", outcomes).tobytes(), flips), tally)

    return Request(f"roll_many n={n}", run, check)


# ---------------------------------------------------------------- loaded

LOADED_FIXED = {
    "dyadic": ("3/8", "1/2", "1/8"),
    "short-period": ("1/3", "2/3"),
    "mixed": ("1/3", "1/5", "7/15"),
}
LOADED_COUNTS = tuple(round(32 * 2 ** (i / 2)) for i in range(8))  # 32 .. 362
# many random targets with few samples each: E[N] differs from one random
# p to the next, and averaging over many keeps flips_per_sample steady
# from seed to seed
RANDOM_OUTCOMES = 8
RANDOM_TARGETS = 32
RANDOM_COUNT = 36
WIDE_SIDES = 997  # 997 x 1/997: long period of 1/997, K = 997
# The K = 997 request sets op_tail_ms.  One sample in 40 needs six levels
# more than the usual ten, so with few samples the tail would jump by the
# seed; one request of 32 samples smooths that out.
WIDE_OPS = 1
WIDE_COUNT = 32


def loaded_requests(lib, seed: int, data: dict) -> list[Request]:
    rng = random.Random(f"loaded:{seed}")
    specs = [(kind, probs, k) for kind, probs in LOADED_FIXED.items() for k in LOADED_COUNTS]
    specs += [
        ("random-K8", random_nondyadic(rng, RANDOM_OUTCOMES), RANDOM_COUNT)
        for _ in range(RANDOM_TARGETS)
    ]
    specs += [("uniform-997", [Fraction(1, WIDE_SIDES)] * WIDE_SIDES, WIDE_COUNT)] * WIDE_OPS
    rng.shuffle(specs)
    return [
        _loaded_request(lib, kind, probs, k, rng.getrandbits(64)) for kind, probs, k in specs
    ]


def _loaded_request(lib, kind: str, entries, k: int, source_seed: int) -> Request:
    p = lib.cd.ProbabilityVector(entries)
    outcomes_k = len(p)
    chi = kind in LOADED_FIXED
    entropy = entropy_bits(p.probs)

    def run(tr: Tracer | None):
        source = lib.cd.SeededSource(source_seed)
        sample = lib.cd.sample
        if tr is None:
            return [sample(p, source) for _ in range(k)], source
        source = lib.TimedSource(source, tr)
        draws = [tr.call("discrete.sample", sample, p, source) for _ in range(k)]
        tr.count("discrete.entropy_bits", k * entropy)
        return draws, source

    def check(output) -> Outcome:
        draws, source = output
        outcomes, flips = _check_rolls(draws, source, k, outcomes_k)
        if any(p.probs[x - 1] == 0 for x in outcomes):
            raise CheckFailed("drew an outcome of probability 0")
        tally = (kind, _counts(outcomes, outcomes_k), p.probs) if chi else None
        return Outcome(k, flips, digest(outcomes, flips), tally)

    return Request(f"sample {kind}", run, check)


# ---------------------------------------------------------------- exact

EXPECTED_FLIPS_SIDES = (5, 4099, 20011)  # short, long and longer period of 1/n
FIXED_NONDYADIC = ("1/3", "1/5", "7/15")
CANONICAL_DEPTH = 20
# Seven jobs well under the median job, seven well over it, so the median
# op is always a verify_bounds op whichever seed shuffles the round.
BOUNDS_RANGE = 64
CHEAP_TREES = (("uniform", 5, 12), ("discrete", FIXED_NONDYADIC, 8))
DEAR_TREES = (("uniform", 37, 16), ("uniform", 101, 20), ("discrete", None, 16))
ENUMERATIONS = ((5, 16), (97, 24), (257, 30))


def exact_requests(lib, seed: int, data: dict) -> list[Request]:
    rng = random.Random(f"exact:{seed}")
    recorded = data["expected_flips"]
    jobs = [_expected_flips_job(lib, n, recorded[str(n)]) for n in EXPECTED_FLIPS_SIDES]
    jobs.append(_bounds_job(lib, BOUNDS_RANGE))
    for entries in [FIXED_NONDYADIC] + [random_nondyadic(rng, 5) for _ in range(2)]:
        jobs.append(_canonical_job(lib, lib.cd.ProbabilityVector(entries), CANONICAL_DEPTH))
    jobs += [_enumerate_job(lib, n, depth) for n, depth in ENUMERATIONS]
    for kind, target, depth in CHEAP_TREES + DEAR_TREES:
        if kind == "uniform":
            p = lib.cd.ProbabilityVector([Fraction(1, target)] * target)
        else:
            p = lib.cd.ProbabilityVector(target or random_nondyadic(rng, 4))
            target = p
        jobs.append(_tree_job(lib, kind, target, p, depth))
    rng.shuffle(jobs)
    return jobs


def _call(tr: Tracer | None, name: str, fn, *args):
    return fn(*args) if tr is None else tr.call(name, fn, *args)


def _expected_flips_job(lib, n: int, recorded: str) -> Request:
    lower = (n - 1).bit_length()
    want = Fraction(recorded)

    def run(tr):
        return _call(tr, "analysis.exact_expected_flips", lib.cd.exact_expected_flips, n)

    def check(value) -> Outcome:
        if not lower <= value <= lower + 1:
            raise CheckFailed(f"E[N]={value} outside [{lower}, {lower + 1}] for n={n}")
        if value != want:
            raise CheckFailed(f"E[N] for n={n} differs from the recorded fraction")
        return Outcome(0, 0, digest(value))

    return Request(f"exact_expected_flips n={n}", run, check, sampling=False)


def _bounds_job(lib, n_max: int) -> Request:
    def run(tr):
        return _call(tr, "analysis.verify_bounds", lib.cd.verify_bounds, n_max)

    def check(report) -> Outcome:
        if [row.n for row in report.rows] != list(range(1, n_max + 1)):
            raise CheckFailed("verify_bounds skipped sizes")
        for row in report.rows:
            lower = (row.n - 1).bit_length()
            if not lower <= row.expected <= lower + 1:
                raise CheckFailed(f"E[N]={row.expected} outside bounds for n={row.n}")
        if report.rows[4].expected != Fraction(18, 5):
            raise CheckFailed("verify_bounds gives E[N] != 18/5 for n=5")
        return Outcome(0, 0, digest([row.expected for row in report.rows]))

    return Request(f"verify_bounds {n_max}", run, check, sampling=False)


def _canonical_job(lib, p, depth: int) -> Request:
    def run(tr):
        tree = _call(tr, "ddg.build_canonical", lib.cd.build_canonical, p, depth)
        if tr is not None:
            tr.count("ddg.nodes", len(tree.nodes))
        return _call(tr, "ddg.flip_distribution", lib.cd.flip_distribution, tree)

    def check(dist) -> Outcome:
        check_canonical_masses(dist.mass, dist.residual, [(q, 1) for q in p.probs], depth)
        return Outcome(0, 0, digest(sorted(dist.mass.items()), dist.residual))

    return Request("flip_distribution canonical", run, check, sampling=False)


def _enumerate_job(lib, n: int, depth: int) -> Request:
    def run(tr):
        result = _call(tr, "oracle.enumerate_uniform", lib.cd.enumerate_uniform, n, depth)
        if tr is not None:
            live = result.live_mass * (1 << depth)
            tr.count("oracle.histories", len(result.leaf_histories) + int(live))
        return result

    def check(result) -> Outcome:
        masses = set(result.outcome_mass.values())
        if sorted(result.outcome_mass) != list(range(1, n + 1)) or len(masses) != 1:
            raise CheckFailed(f"outcome masses of the {n}-sided die are not all equal")
        if result.terminated_mass() + result.live_mass != 1:
            raise CheckFailed("terminated and live mass do not sum to 1")
        for j in range(1, depth + 1):
            want = Fraction(n * expansion_bit(Fraction(1, n), j), 1 << j)
            if result.flip_mass.get(j, 0) != want:
                raise CheckFailed(f"P(N={j}) is not n * bit_j(1/n) * 2^-j for n={n}")
        return Outcome(0, 0, digest(masses.pop(), result.live_mass))

    return Request(f"enumerate_uniform n={n}", run, check, sampling=False)


def _tree_job(lib, kind: str, target, p, depth: int) -> Request:
    build = lib.cd.build_from_uniform if kind == "uniform" else lib.cd.build_from_discrete

    def run(tr):
        tree = _call(tr, f"ddg.build_from_{kind}", build, target, depth)
        if tr is not None:
            tr.count("ddg.nodes", len(tree.nodes))
        return tree, _call(tr, "ddg.check_optimal", lib.cd.check_optimal, tree, p)

    def check(output) -> Outcome:
        tree, verdict = output
        if not verdict.ok:
            raise CheckFailed(f"check_optimal rejects the {kind} tree: {verdict.violations[:1]}")
        leaves = sorted(tree.leaves())
        # every leaf is one replayed variate; its depth is the flips it used
        flips = sum(len(history) for history, _ in leaves)
        return Outcome(len(leaves), flips, digest(leaves))

    return Request(f"build_from_{kind}+check_optimal", run, check)


# ---------------------------------------------------------------- cli

CLI_SMALL_COUNT = 500
# Big enough that the O(n) target sample --die builds dwarfs the rolls.
# At 100003 that build took 0.7 s and its run-to-run spread, about 30%,
# swamped every other op of the workload.
CLI_BIG_SIDES = 10007
CLI_BIG_COUNT = 20
CHISQ_COUNT = 3000
_SUMMARY = re.compile(r"^# total_flips=(\d+) flips_per_roll=\S+ entropy_floor=\S+$")
_CHISQ = re.compile(r"^chi-square = \S+  df = (\d+)  p-value = (\S+)$")


def cli_requests(lib, seed: int, data: dict) -> list[Request]:
    rng = random.Random(f"cli:{seed}")
    fixed = ",".join(FIXED_NONDYADIC)
    rand = ",".join(f"{q.numerator}/{q.denominator}" for q in random_nondyadic(rng, 5))
    # sample only fixed targets: the E[N] of a random one would make
    # flips_per_sample differ from seed to seed
    specs = [
        ("sample", ["--die", "6"], CLI_SMALL_COUNT),
        ("sample", ["--die", "257"], CLI_SMALL_COUNT),
        ("sample", ["--die", str(CLI_BIG_SIDES)], CLI_BIG_COUNT),
        ("sample", ["--die", str(CLI_BIG_SIDES)], CLI_BIG_COUNT),
        ("sample", ["--dist", ",".join(LOADED_FIXED["dyadic"])], CLI_SMALL_COUNT),
        ("sample", ["--dist", fixed], CLI_SMALL_COUNT),
        ("analyze", ["--die", "5"], None),
        ("analyze", ["--die", "257"], None),
        ("analyze", ["--die", "4099"], None),
        ("analyze", ["--dist", fixed], None),
        ("analyze", ["--dist", rand], None),
        ("chisq", ["--die", "6"], CHISQ_COUNT),
        ("tree", ["--die", "5"], None),
        ("tree", ["--die", "37", "--depth", "14"], None),
        ("tree", ["--dist", fixed], None),
    ]
    rng.shuffle(specs)
    return [_cli_request(lib, cmd, target, count, rng.getrandbits(32)) for cmd, target, count in specs]


def _cli_request(lib, command: str, target: list[str], count, cli_seed: int) -> Request:
    argv = [command, *target]
    if command in ("sample", "chisq"):
        argv += ["--count", str(count), "--seed", str(cli_seed)]
    if command == "sample":
        argv.append("--show-flips")
    elif command == "analyze":
        argv.append("--json")
    elif command == "tree":
        argv.append("--check")
    sides = int(target[1]) if target[0] == "--die" else None
    p = None if sides else lib.cd.parse_distribution(target[1])
    if sides and command in ("chisq", "tree"):
        # check_optimal and chi_square_test take the uniform target; the CLI
        # builds it as its own work, so the direct calls get it ready-made
        p = lib.cd.ProbabilityVector([Fraction(1, sides)] * sides)

    def run(tr: Tracer | None):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(argv) if tr is None else tr.call("cli.main", lib.cli.main, argv)
        return code, out.getvalue(), err.getvalue()

    def direct(tr: Tracer) -> None:
        """The library calls the command makes, made directly."""
        if command == "sample":
            source = lib.TimedSource(lib.cd.SeededSource(cli_seed), tr)
            if sides:
                tr.call("uniform.roll_many", lib.cd.roll_many, sides, count, source)
                tr.count("uniform.rolls", count)
                tr.count("uniform.useful_bits", count * math.log2(sides))
            else:
                for _ in range(count):
                    tr.call("discrete.sample", lib.cd.sample, p, source)
                tr.count("discrete.entropy_bits", count * entropy_bits(p.probs))
                tr.call("analysis.entropy", lib.cd.entropy, p)
        elif command == "analyze" and sides:
            tr.call("analysis.exact_expected_flips", lib.cd.exact_expected_flips, sides)
            depth = 2 * (sides - 1).bit_length() + 8
            tr.call("analysis.flip_distribution_uniform", lib.cd.flip_distribution_uniform,
                    sides, depth)
        elif command == "analyze":
            tree = tr.call("ddg.build_canonical", lib.cd.build_canonical, p, 16)
            tr.call("ddg.flip_distribution", lib.cd.flip_distribution, tree)
            tr.call("analysis.entropy", lib.cd.entropy, p)
        elif command == "chisq":
            source = lib.TimedSource(lib.cd.SeededSource(cli_seed), tr)
            rolls = tr.call("uniform.roll_many", lib.cd.roll_many, sides, count, source)
            tr.count("uniform.rolls", count)
            tr.count("uniform.useful_bits", count * math.log2(sides))
            counts = _counts([r.outcome for r in rolls], sides)
            tr.call("gof.chi_square_test", lib.cd.chi_square_test, counts, p.probs, 0.001)
        else:
            depth = int(target[3]) if len(target) > 2 else (
                2 * (sides - 1).bit_length() + 8 if sides else 12)
            if sides:
                tree = tr.call("ddg.build_from_uniform", lib.cd.build_from_uniform, sides, depth)
            else:
                tree = tr.call("ddg.build_from_discrete", lib.cd.build_from_discrete, p, depth)
            tr.count("ddg.nodes", len(tree.nodes))
            tr.call("ddg.export_dot", lib.cd.export_dot, tree)
            tr.call("ddg.check_optimal", lib.cd.check_optimal, tree, p)

    def check(output) -> Outcome:
        code, out, err = output
        if code != 0:
            raise CheckFailed(f"{' '.join(argv)} exited {code}: {err.strip()[:200]}")
        lines = out.splitlines()
        samples = flips = 0
        if command == "sample":
            samples, flips = _parse_sample(lines, count, sides or len(p))
        elif command == "analyze":
            _check_analyze(out, sides, p)
        elif command == "chisq":
            _check_chisq(lines, sides)
        elif not (out.startswith("digraph ddg {\n") and out.endswith("}\n")) or "optimal" not in err:
            raise CheckFailed("tree --check did not print a DOT graph and an optimal verdict")
        return Outcome(samples, flips, digest(out))

    return Request(" ".join(argv[:3]), run, check, direct, sampling=command == "sample")


def _parse_sample(lines: list[str], count: int, outcomes: int) -> tuple[int, int]:
    if len(lines) != count + 1:
        raise CheckFailed(f"sample printed {len(lines)} lines for {count} variates")
    flips = 0
    for line in lines[:-1]:
        outcome, used = (int(tok) for tok in line.split())
        if not 1 <= outcome <= outcomes:
            raise CheckFailed(f"sample printed outcome {outcome} outside 1..{outcomes}")
        flips += used
    summary = _SUMMARY.match(lines[-1])
    if not summary or int(summary.group(1)) != flips:
        raise CheckFailed(f"sample summary does not match its lines: {lines[-1]!r}")
    return count, flips


def _check_analyze(out: str, sides, p) -> None:
    payload = json.loads(out)
    expected = Fraction(payload["expected_num"], payload["expected_den"])
    residual = Fraction(payload["residual_num"], payload["residual_den"])
    mass = {row["flips"]: Fraction(row["num"], row["den"]) for row in payload["flip_distribution"]}
    weighted = [(Fraction(1, sides), sides)] if sides else [(q, 1) for q in p.probs]
    check_canonical_masses(mass, residual, weighted, payload["depth"])
    if sides:
        lower = (sides - 1).bit_length()
        if (payload["lower"], payload["upper"]) != (lower, lower + 1):
            raise CheckFailed(f"analyze --die {sides} prints the wrong bounds")
        if not lower <= expected <= lower + 1 or not payload["expected_exact"]:
            raise CheckFailed(f"analyze --die {sides} prints E[N]={expected} outside its bounds")
        if sides == 5 and expected != Fraction(18, 5):
            raise CheckFailed("analyze --die 5 does not print E[N] = 18/5")


def _check_chisq(lines: list[str], sides: int) -> None:
    match = _CHISQ.match(lines[1]) if len(lines) == 3 else None
    if not match or int(match.group(1)) != sides - 1 or lines[2] != "PASS at significance 0.001":
        raise CheckFailed(f"chisq output does not parse as a pass: {lines!r}")
    float(match.group(2))  # the p-value must parse too


def warm_up_requests(workload: str, lib) -> list[Request]:
    """A few small ops that walk the same code paths as the round."""
    if workload == "dice":
        return [_dice_request(lib, n, 8, 0) for n in DICE_SIDES]
    if workload == "loaded":
        return [_loaded_request(lib, kind, probs, 8, 0) for kind, probs in LOADED_FIXED.items()]
    if workload == "exact":
        fixed = lib.cd.ProbabilityVector(FIXED_NONDYADIC)
        five = lib.cd.ProbabilityVector([Fraction(1, 5)] * 5)
        return [
            _expected_flips_job(lib, 5, "18/5"),
            _bounds_job(lib, 8),
            _canonical_job(lib, fixed, 8),
            _enumerate_job(lib, 5, 8),
            _tree_job(lib, "uniform", 5, five, 8),
            _tree_job(lib, "discrete", fixed, fixed, 6),
        ]
    return [
        _cli_request(lib, "sample", ["--die", "6"], 8, 0),
        _cli_request(lib, "sample", ["--dist", ",".join(FIXED_NONDYADIC)], 8, 0),
        _cli_request(lib, "analyze", ["--die", "5"], None, 0),
        _cli_request(lib, "analyze", ["--dist", ",".join(FIXED_NONDYADIC)], None, 0),
        _cli_request(lib, "chisq", ["--die", "2"], 100, 0),
        _cli_request(lib, "tree", ["--die", "3"], None, 0),
    ]


WORKLOADS = {
    "dice": dice_requests,
    "loaded": loaded_requests,
    "exact": exact_requests,
    "cli": cli_requests,
}
