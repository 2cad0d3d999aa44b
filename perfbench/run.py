#!/usr/bin/env python3
"""Benchmark for coindice: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload dice --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: coindice is imported from ``src/``
there, never from an installed copy.  Workloads are ``dice``, ``loaded``,
``exact`` and ``cli`` (see NOTES.md for why each exists).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, prints the per-layer metrics from the
traced half, runs the naive-rejection baseline and writes every span to
``.perfbench/`` in the tree.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status 2 means coindice could not be loaded and nothing was measured.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from baseline import run_baseline
from tracer import NAME, PARENT, START, END, Tracer, timed_source_class
from workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data.json"
TRACE_DIR = ROOT / ".perfbench"
# set-ups per run, spread over the untraced loop; their median is setup_s
SETUP_REPEATS = 9
# p99.9 is left off: a faster program would cross its ten-op threshold
# mid-history and switch the reported percentile
TAIL_LADDER = (99, 90, 50)
CHI_SIGNIFICANCE = 1e-6  # the round is checked on every seed; keep false alarms rare


class LoadError(Exception):
    """coindice is not importable from this tree's src/."""


def load_coindice() -> SimpleNamespace:
    """Import coindice afresh from ``src/`` and return its modules."""
    if not (SRC / "coindice" / "__init__.py").is_file():
        raise LoadError(f"no coindice package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "coindice" or m.startswith("coindice.")]:
        del sys.modules[name]
    cd = importlib.import_module("coindice")
    cli = importlib.import_module("coindice.cli")
    if SRC not in Path(cd.__file__).resolve().parents:
        raise LoadError(f"coindice was imported from {cd.__file__}, not from {SRC}")
    return SimpleNamespace(cd=cd, cli=cli, TimedSource=timed_source_class(cd.BitSource))


def setup(workload: str, seed: int, data: dict):
    """Import, build the seeded round and warm up; returns the pieces and
    the seconds it took."""
    start = perf_counter()
    lib = load_coindice()
    requests = WORKLOADS[workload](lib, seed, data)
    for request in workloads.warm_up_requests(workload, lib):
        request.check(request.run(None))
    return lib, requests, perf_counter() - start


class Phase:
    """Everything one timed loop over the round measured."""

    def __init__(self, requests) -> None:
        self.requests = requests
        # wall time of each op, in op order: op o replays request o % size
        self.latencies: list[float] = []
        self.samples_by_index = [0] * len(requests)
        self.failed_ops = 0
        # requests whose round failed a check made over the whole round:
        # every op of theirs counts as failed
        self.bad_indices: set[int] = set()
        self.fingerprint: tuple[int, str] | None = None
        self.fingerprint_mismatch = False
        self.round_flips = 0
        self.round_samples = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        if self.fingerprint_mismatch:
            return self.attempted
        size = len(self.requests)
        bad = sum(len(self.latencies[i::size]) for i in self.bad_indices)
        return min(self.attempted, self.failed_ops + bad)

    def best(self) -> list[float]:
        """Each request's fastest replay: best-of-k, k its replay count.

        Replays of a request are the same computation on the same inputs,
        so their spread is the shared machine's, which slows every op by
        up to 2x for seconds, and at times for a whole run.  The fastest
        replay filters that out where the mean or the median cannot.
        """
        size = len(self.requests)
        return [min(self.latencies[index::size]) for index in range(size)]

    def charged(self) -> list[float]:
        """Every op of the whole rounds, charged its request's best latency;
        whole rounds only, so each request weighs the same."""
        return self.best() * (self.attempted // len(self.requests))

    def ops_per_s(self) -> float:
        return len(self.requests) / sum(self.best())

    def samples_per_s(self) -> float:
        sampling = [
            (t, samples)
            for t, samples, request in zip(self.best(), self.samples_by_index, self.requests)
            if request.sampling
        ]
        return sum(n for _, n in sampling) / sum(t for t, _ in sampling)

    def fail(self, message: str, index: int | None = None) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)
        if index is None:
            self.failed_ops += 1
        else:
            self.bad_indices.add(index)


def run_phase(requests, seconds: float, lib, tracer: Tracer | None, reference: dict,
              recorded: dict | None, between_rounds=None) -> Phase:
    """Replay the round, one op at a time, until ``seconds`` have passed
    and at least one whole round is done.

    ``reference`` maps a request index to its first output digest and is
    shared between phases, so a traced replay must match the untraced one.
    ``between_rounds`` is called, untimed, after every whole round.
    """
    size = len(requests)
    phase = Phase(requests)
    round_digests = []
    tallies: dict[str, tuple] = {}
    deadline = perf_counter() + seconds
    op = 0
    while op < size or perf_counter() < deadline:
        index = op % size
        request = requests[index]
        if tracer is not None:
            tracer.req = op
        outcome = error = None
        start = perf_counter()
        try:
            output = request.run(tracer)
        except Exception as exc:  # the program raised: a failed op, keep going
            error = exc
        elapsed = perf_counter() - start
        phase.latencies.append(elapsed)
        if error is None:
            if tracer is not None and request.direct is not None:
                tracer.call("direct", request.direct, tracer)
            try:
                outcome = request.check(output)
            except Exception as exc:  # CheckFailed, or output that does not parse
                error = exc
        if error is not None:
            phase.fail(f"{request.kind}: {type(error).__name__}: {error}")
        else:
            if outcome.digest != reference.setdefault(index, outcome.digest):
                phase.fail(f"{request.kind}: output differs from the first replay")
        if op < size:
            round_digests.append(outcome.digest if outcome else b"-")
            if outcome is not None:
                phase.samples_by_index[index] = outcome.samples
                phase.round_flips += outcome.flips
                phase.round_samples += outcome.samples
                if outcome.tally is not None:
                    key, counts, probs = outcome.tally
                    total, _, indices = tallies.setdefault(key, ([0] * len(counts), probs, []))
                    total[:] = [a + b for a, b in zip(total, counts)]
                    indices.append(index)
            if op == size - 1:
                _close_round(phase, lib, tracer, round_digests, tallies, recorded)
        if index == size - 1 and between_rounds is not None:
            between_rounds()
        op += 1
    return phase


def _close_round(phase: Phase, lib, tracer, round_digests, tallies, recorded) -> None:
    """Fingerprint the first round and run its chi-square checks."""
    phase.fingerprint = (phase.round_flips, digest(b"".join(round_digests)).hex())
    if recorded is not None and [recorded["flips"], recorded["digest"]] != list(phase.fingerprint):
        phase.fingerprint_mismatch = True
        phase.fail(f"fingerprint {phase.fingerprint} differs from the recorded {recorded}")
    for key, (counts, probs, indices) in tallies.items():
        test = lib.cd.chi_square_test
        args = (counts, probs, CHI_SIGNIFICANCE)
        result = test(*args) if tracer is None else tracer.call("gof.chi_square_test", test, *args)
        if not result.passed:
            for index in indices:
                phase.fail(f"{key}: chi-square p={result.p_value:.3g} over one round", index)


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest ladder percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10 or pct == TAIL_LADDER[-1]:
            return pct, ordered[max(rank, 1) - 1]
    raise AssertionError("unreachable")


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    charged = phase.charged()
    pct, tail_s = tail(charged)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (phase.ops_per_s(), "ops/s"),
        "samples_per_s": (phase.samples_per_s(), "samples/s"),
        "op_p50_ms": (statistics.median(charged) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "flips_per_sample": (phase.round_flips / phase.round_samples, "flips"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, pct


def period_of_inverse(n: int) -> int:
    """Period of the binary expansion of 1/n: the order of 2 modulo n's odd part."""
    odd = n >> ((n & -n).bit_length() - 1)
    if odd == 1:
        return 0
    order, value = 1, 2 % odd
    while value != 1:
        value = value * 2 % odd
        order += 1
    return order


def analysis_memory(requests) -> tuple[float, int]:
    """Peak traced allocation of the exact workload's analysis calls, each
    run once more outside the timed loops, and the longest period of 1/n."""
    peak = 0
    for request in requests:
        if request.kind.startswith(("exact_expected_flips", "verify_bounds")):
            tracemalloc.start()
            try:
                request.run(None)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    periods = [period_of_inverse(n) for n in workloads.EXPECTED_FLIPS_SIDES]
    return peak / 2**20, max(periods)


def per_layer(tracer: Tracer, untraced: Phase, traced: Phase, workload: str, requests,
              naive: dict) -> dict:
    own = tracer.self_times()
    bits = tracer.bits_within()
    c = tracer.counters
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    span_bits: dict[str, int] = {}
    direct_children = 0.0
    for index, span in enumerate(tracer.spans):
        name = span[NAME]
        length = span[END] - span[START]
        dur[name] = dur.get(name, 0.0) + length
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + own[index]
        span_bits[name] = span_bits.get(name, 0) + bits[index]
        parent = span[PARENT]
        if parent >= 0 and tracer.spans[parent][NAME] == "direct":
            direct_children += length

    def ratio(a, b):
        return a / b if b else 0.0

    builds = sum(v for k, v in dur.items() if k.startswith("ddg.build_"))
    samples = calls.get("discrete.sample", 0)
    sample_bits = span_bits.get("discrete.sample", 0)
    peak_mb, period = analysis_memory(requests) if workload == "exact" else (0.0, 0)
    return {
        "bitsource.bits": (c.get("bitsource.bits", 0), "bits"),
        "bitsource.self_s": (c.get("bitsource.self_s", 0.0), "s"),
        "bitsource.bits_per_s": (ratio(c.get("bitsource.bits", 0), c.get("bitsource.self_s", 0)), "bits/s"),
        "uniform.rolls": (c.get("uniform.rolls", 0), "count"),
        "uniform.self_s": (self_s.get("uniform", 0.0), "s"),
        "uniform.efficiency": (ratio(c.get("uniform.useful_bits", 0), span_bits.get("uniform.roll_many", 0)), "ratio"),
        "discrete.samples": (samples, "count"),
        "discrete.self_s": (self_s.get("discrete", 0.0), "s"),
        "discrete.levels_per_sample": (ratio(sample_bits, samples), "levels"),
        "discrete.efficiency": (ratio(c.get("discrete.entropy_bits", 0), sample_bits), "ratio"),
        "analysis.self_s": (self_s.get("analysis", 0.0), "s"),
        "analysis.expected_flips_s": (dur.get("analysis.exact_expected_flips", 0.0), "s"),
        "analysis.verify_bounds_s": (dur.get("analysis.verify_bounds", 0.0), "s"),
        "analysis.peak_alloc_mb": (peak_mb, "MB"),
        "analysis.period_len": (period, "bits"),
        "ddg.nodes": (c.get("ddg.nodes", 0), "count"),
        "ddg.build_s": (builds, "s"),
        "ddg.nodes_per_s": (ratio(c.get("ddg.nodes", 0), builds), "nodes/s"),
        "ddg.check_s": (dur.get("ddg.check_optimal", 0.0), "s"),
        "oracle.histories": (c.get("oracle.histories", 0), "count"),
        "oracle.enumerate_s": (dur.get("oracle.enumerate_uniform", 0.0), "s"),
        "oracle.histories_per_s": (ratio(c.get("oracle.histories", 0), dur.get("oracle.enumerate_uniform", 0.0)), "1/s"),
        "gof.calls": (sum(v for k, v in calls.items() if k.startswith("gof.")), "count"),
        "gof.self_s": (self_s.get("gof", 0.0), "s"),
        "cli.main_s": (dur.get("cli.main", 0.0), "s"),
        "cli.overhead_s": (dur.get("cli.main", 0.0) - direct_children if "cli.main" in dur else 0.0, "s"),
        "trace.overhead_ratio": (traced.ops_per_s() / untraced.ops_per_s(), "ratio"),
        "baseline.naive_samples_per_s": (naive["naive_samples_per_s"], "samples/s"),
        "baseline.naive_flips_per_sample": (naive["naive_flips_per_sample"], "flips"),
    }


def git_commit() -> str:
    """HEAD of the tree, read from .git without running git; 'unknown' if
    the tree is not a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    data = json.loads(DATA.read_text())
    recorded = data["fingerprints"].get(args.workload, {}).get(str(args.seed))
    try:
        lib, requests, elapsed = setup(args.workload, args.seed, data)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_times = [elapsed]
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    spacing = untraced_s / SETUP_REPEATS
    next_setup = perf_counter() + spacing

    def set_up_again() -> None:
        # the requests of the first set-up stay in use; these only time it
        nonlocal next_setup
        if len(setup_times) < SETUP_REPEATS and perf_counter() >= next_setup:
            setup_times.append(setup(args.workload, args.seed, data)[2])
            next_setup += spacing

    reference: dict[int, bytes] = {}
    untraced = run_phase(requests, untraced_s, lib, None, reference, recorded, set_up_again)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup(args.workload, args.seed, data)[2])
    phases = [untraced]
    if args.trace:
        tracer = Tracer()
        traced = run_phase(requests, args.seconds / 2, lib, tracer, reference, recorded)
        phases.append(traced)
        if traced.fingerprint != untraced.fingerprint:
            traced.fingerprint_mismatch = True
            traced.fail("traced fingerprint differs from the untraced one")
        naive = run_baseline(lib.cd.SeededSource, workloads.DICE_SIDES, args.seed)
        metrics = per_layer(tracer, untraced, traced, args.workload, requests, naive)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    e2e, pct = end_to_end(untraced, setup_times)
    if not args.trace:
        metrics = e2e

    print("# manifest " + json.dumps(manifest(args), sort_keys=True))
    flips, print_digest = untraced.fingerprint
    print(f"# fingerprint flips={flips} digest={print_digest} "
          f"recorded={'yes' if recorded else 'no'}")
    charged = len(untraced.charged())
    print(f"# ops={untraced.attempted} in whole rounds={charged} tail_percentile=p{pct} "
          f"(ops beyond it: {charged - math.ceil(pct / 100 * charged)})")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    for phase in phases:
        for error in phase.errors:
            print(f"# failure: {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
