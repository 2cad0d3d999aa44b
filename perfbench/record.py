#!/usr/bin/env python3
"""Record the benchmark's reference data in perfbench/data.json.

    python3 perfbench/record.py

It stores the exact E[N] of the ``exact`` workload's die sizes and, for
every workload and each seed below ``SEEDS``, the fingerprint of one
round: its total flips and the digest of every op's output.  A run whose
first round does not reproduce the fingerprint of its seed counts every
op as failed.  Re-record only for a change meant to alter outputs or flip
counts; a round that fails any check is refused.
"""

import json
import sys

import run
from workloads import EXPECTED_FLIPS_SIDES, WORKLOADS

SEEDS = 64


def main() -> int:
    lib = run.load_coindice()
    expected = {}
    for n in EXPECTED_FLIPS_SIDES:
        value = lib.cd.exact_expected_flips(n)
        lower = (n - 1).bit_length()
        if not lower <= value <= lower + 1:
            print(f"error: E[N]={value} for n={n} is outside its bounds", file=sys.stderr)
            return 1
        expected[str(n)] = f"{value.numerator}/{value.denominator}"
    data = {"expected_flips": expected, "fingerprints": {}}

    for workload in WORKLOADS:
        table = data["fingerprints"][workload] = {}
        for seed in range(SEEDS):
            lib, requests, _ = run.setup(workload, seed, data)
            phase = run.run_phase(requests, 0, lib, None, {}, None)
            if phase.failed:
                print(f"error: {workload} seed {seed}: {phase.errors}", file=sys.stderr)
                return 1
            flips, digest = phase.fingerprint
            table[str(seed)] = {"flips": flips, "digest": digest}
        print(f"{workload}: {SEEDS} seeds recorded")

    run.DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
