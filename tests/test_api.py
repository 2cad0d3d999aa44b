"""The public API is what the CLI, the README and the benchmark reach."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import coindice
from coindice import analysis, bitsource, ddg, discrete
from reference import ReplaySource

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
REMOVED = (
    "LevelCensus", "state_tree_uniform", "state_tree_discrete", "enumerate_discrete",
    "acceptance_set", "ReplaySource", "SourceExhausted", "Bit", "INTERNAL", "RecyclerState",
)
# the errors that public calls raise on a caller's input
ERRORS = {"InvalidDistribution", "MassMismatch"}
# what a die roll never needs
HEAVY = ("coindice.analysis", "coindice.ddg", "coindice.gof")


def _cd_names(*paths: Path) -> set[str]:
    """NAME of each lib.cd.NAME and cd.NAME, where cd is the imported coindice package."""
    return {name for path in paths for name in re.findall(r"\bcd\.([A-Za-z]\w*)", path.read_text())}


def test_every_name_perfbench_reaches_is_exported():
    reached = _cd_names(*PERFBENCH.glob("*.py"))
    assert "check_optimal" in reached
    assert reached <= set(coindice.__all__), sorted(reached - set(coindice.__all__))


def test_the_exports_are_what_perfbench_ci_and_the_quickstart_reach_plus_the_input_errors():
    reached = _cd_names(WORKFLOW, *PERFBENCH.glob("*.py"))
    for node in ast.walk(ast.parse(readme_block("Library quickstart", "python"))):
        if isinstance(node, ast.ImportFrom) and node.module == "coindice":
            reached.update(alias.name for alias in node.names)
    assert "roll" in reached  # only the quickstart reaches it
    assert set(coindice.__all__) == reached | ERRORS
    assert len(coindice.__all__) == 21


def test_test_only_names_are_gone():
    modules = (coindice, bitsource, ddg, discrete)
    for name in REMOVED:
        assert name not in coindice.__all__
        assert not any(hasattr(module, name) for module in modules), name
    assert not hasattr(coindice.ProbabilityVector, "prob")
    assert not hasattr(ReplaySource, "remaining")
    assert type(ddg.census(ddg.build_from_uniform(3, 2))) is dict


def test_expansion_bit_lives_beside_the_tree_checks_not_the_sampler():
    assert not hasattr(discrete, "expansion_bit")
    assert ddg.expansion_bit.__module__ == "coindice.ddg"
    assert "expansion_bit" not in coindice.__all__


def _defined_names(module: str) -> set[str]:
    """Names a def, a class or an assignment binds at the top level of ``module``."""
    names = set()
    for node in ast.parse(Path(importlib.import_module(module).__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_tests_import_each_name_from_the_module_that_defines_it():
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coindice.")
        for alias in node.names
    ]
    assert imports
    stray = [line for line in imports if line[2] not in _defined_names(line[1])]
    assert not stray, stray


def test_every_export_resolves_to_its_defining_module(monkeypatch):
    assert len(set(coindice.__all__)) == len(coindice.__all__) == 21
    for module, names in coindice._EXPORTS.items():
        defining = importlib.import_module(f"coindice.{module}")
        for name in names:
            # drop a value an earlier lookup kept, so this one takes the lazy path
            monkeypatch.delitem(vars(coindice), name, raising=False)
            value = getattr(coindice, name)
            assert value is getattr(defining, name), name
            assert getattr(value, "__module__", defining.__name__) in {defining.__name__, "builtins"}
            assert vars(coindice)[name] is value, name  # later lookups skip __getattr__
    with pytest.raises(AttributeError, match="^module 'coindice' has no attribute 'nope'$"):
        coindice.nope


def test_star_import_binds_every_export():
    namespace = {}
    exec("from coindice import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(coindice.__all__)
    assert all(namespace[name] is getattr(coindice, name) for name in namespace)


def test_rolling_a_die_loads_no_analysis_tree_oracle_or_gof_module():
    script = (
        "import sys, coindice, coindice.cli\n"
        "coindice.cli.main(['sample', '--die', '6', '--count', '3'])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('coindice')))\n"
    )
    src = os.path.dirname(os.path.dirname(coindice.__file__))
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    *rolls, loaded = child.stdout.splitlines()
    assert len(rolls) == 4  # three rolls and the summary line
    assert {"coindice.cli", "coindice.discrete"} <= set(loaded.split())
    assert not set(HEAVY) & set(loaded.split()), loaded


def test_the_trie_walk_lives_in_ddg_which_loads_no_analysis():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("coindice.oracle")
    assert ddg.enumerate_uniform.__module__ == ddg.FlipDistribution.__module__ == "coindice.ddg"
    script = "import sys, coindice.ddg\nprint(*sorted(m for m in sys.modules if m.startswith('coindice')))"
    src = os.path.dirname(os.path.dirname(coindice.__file__))
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [
        "coindice", "coindice.bitsource", "coindice.ddg", "coindice.discrete"
    ]


def _loaded_by(script: str) -> list[str]:
    """The coindice modules a fresh interpreter holds after ``script``."""
    script += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('coindice')))"
    src = os.path.dirname(os.path.dirname(coindice.__file__))
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1].split()


def test_the_die_and_both_draw_loops_live_in_discrete():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("coindice.uniform")
    for name in ("roll", "roll_many", "_roll", "TracedRoll", "_check_sides", "ceil_log2"):
        assert getattr(discrete, name).__module__ == "coindice.discrete", name
    assert analysis.ceil_log2 is discrete.ceil_log2  # imported, not a copy


def test_the_draw_loops_record_no_trace():
    for draw in (discrete.roll, discrete.roll_many, discrete.sample, discrete._roll):
        assert "trace" not in inspect.signature(draw).parameters, draw.__name__
    assert [f.name for f in dataclasses.fields(discrete.TracedRoll)] == ["outcome", "flips"]


def test_importing_the_cli_loads_only_bitsource_and_discrete():
    assert _loaded_by("import coindice.cli") == [
        "coindice", "coindice.bitsource", "coindice.cli", "coindice.discrete"
    ]


def test_a_checked_tree_loads_no_analysis_or_gof():
    loaded = _loaded_by(
        "import contextlib, io, coindice.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert coindice.cli.main(['tree', '--die', '5', '--check']) == 0"
    )
    assert "coindice.ddg" in loaded
    assert not {"coindice.analysis", "coindice.gof"} & set(loaded), loaded


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README's ``## heading``."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"\n## {heading}\n") :]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run_as_written():
    exec(readme_block("Library quickstart", "python"), {})
    from coindice.cli import main

    commands = [shlex.split(line, comments=True) for line in readme_block("CLI", "sh").splitlines()]
    assert len([argv for argv in commands if argv]) == 9
    for argv in filter(None, commands):
        if ">" in argv:  # the output file of a redirection goes with it
            del argv[argv.index(">") : argv.index(">") + 2]
        assert argv[0] == "coindice", argv
        assert main(argv[1:]) == 0, argv
