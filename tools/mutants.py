#!/usr/bin/env python3
"""Mutation runner: python tools/mutants.py [--list] src/coindice/MODULE.py ...

One mutant per ``raise`` (to ``pass``), per comparison operator (< <=,
> >=, == != swapped), per binary + and - (swapped) and per unary minus
(dropped, so ``[::-1]`` reads ``[::1]``).  Each runs its module's test
files (TESTS) under ``python -B`` in a throwaway copy of src/, tests/,
pyproject.toml and what the tests read (README.md, perfbench/, .github/),
so no stale bytecode, .hypothesis/ or .pytest_cache/ of the tree is read
or written.  Prints path:line:column (1-based, of the mutated token, so
two mutants of one line differ), the change and killed, survived or timeout
(a hang cannot pass, so it counts as detected), then the totals; exits 1
if any mutant survived.  A mutant times out after ten times as long as
its module's unmutated tests took, and never before a minute.  ``--list``
prints the mutants and runs none.  Every run first checks TESTS against
tests/ and exits 1 if a mapped file is missing or a test file is mapped
by no module.
"""

import ast
import bisect
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds for a module's unmutated tests
PYTEST = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
SWAP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
        ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+")}
TESTS = {  # module -> the test files that run on its mutants
    "__init__": ["test_api"],
    "analysis": ["test_analysis", "test_acceptance"],
    "bitsource": ["test_bitsource"],
    "cli": ["test_cli", "test_cli_fuzz", "test_cli_golden"],
    "ddg": ["test_ddg", "test_analysis", "test_discrete", "test_acceptance"],
    "discrete": ["test_discrete", "test_acceptance"],
    "gof": ["test_gof"],
}


def mutants(source: bytes):
    """(line, column, change, mutated source) in source order, at the mutated token;
    ast columns count UTF-8 bytes, the column counts characters."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = lambda node: starts[node.lineno - 1] + node.col_offset
    end = lambda node: starts[node.end_lineno - 1] + node.end_col_offset
    found = []

    def swap(left, right, old, new):  # the operator is the one token between its operands
        gap = source[end(left) : begin(right)]
        token = end(left) + gap.index(old.encode())
        text = gap.replace(old.encode(), new.encode(), 1)
        found.append((end(left), token, f"{old} -> {new}", begin(right), text))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            found.append((begin(node), begin(node), "raise -> pass", end(node), b"pass"))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAP:
                    swap(left, right, *SWAP[type(op)])
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
            swap(node.left, node.right, *ARITHMETIC[type(node.op)])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            text = source[begin(node) : begin(node.operand)].replace(b"-", b"", 1)
            found.append((begin(node), begin(node), "-x -> x", begin(node.operand), text))
    for start, token, change, stop, text in sorted(found):
        line = bisect.bisect_right(starts, token) - 1
        column = len(source[starts[line] : token].decode()) + 1
        yield line + 1, column, change, source[:start] + text + source[stop:]


def run(path: Path, source: bytes, timeout: float) -> str:
    """killed, survived or timeout: the module's tests on a copy with ``source`` at ``path``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests", "perfbench", ".github"):
            skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tmp)
        Path(tmp, path).write_bytes(source)
        tests = [f"tests/{name}.py" for name in TESTS[path.stem]]
        try:
            done = subprocess.run(PYTEST + tests, cwd=tmp, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "killed" if done.returncode else "survived"


def stale_map() -> str | None:
    """One line naming the TESTS entries without a file and the test files
    without an entry, or None if the map and tests/ agree."""
    mapped = {name for names in TESTS.values() for name in names}
    present = {path.stem for path in (ROOT / "tests").glob("test_*.py")}
    if mapped != present:
        return (f"TESTS map is stale: missing {sorted(mapped - present)}, "
                f"unmapped {sorted(present - mapped)}")
    return None


def main(argv: list[str]) -> int:
    if problem := stale_map():
        sys.exit(problem)
    listing, verdicts, started = "--list" in argv, [], time.perf_counter()
    for path in [Path(arg).resolve().relative_to(ROOT) for arg in argv if arg != "--list"]:
        if path.stem not in TESTS:
            sys.exit(f"no test files mapped for {path}")
        source = (ROOT / path).read_bytes()
        if not listing:
            begun = time.perf_counter()
            if run(path, source, TIMEOUT) != "survived":  # the unmutated source must pass
                sys.exit(f"the tests of {path} fail on the unmutated source")
            clean = time.perf_counter() - begun
            timeout = max(60, 10 * clean)
            print(f"{path}: unmutated tests {clean:.0f} s, {timeout:.0f} s per mutant", flush=True)
        for line, column, change, mutated in mutants(source):
            verdicts.append("listed" if listing else run(path, mutated, timeout))
            print(f"{path}:{line}:{column}  {change}  {verdicts[-1]}", flush=True)
    counts = ", ".join(f"{verdicts.count(v)} {v}" for v in sorted(set(verdicts))) or "none"
    print(f"{len(verdicts)} mutants: {counts} in {time.perf_counter() - started:.0f} s")
    return 1 if "survived" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
