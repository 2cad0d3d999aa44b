"""The public API is what the CLI, the README and the benchmark reach."""

import re
from pathlib import Path

import coindice
from coindice import ddg, oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REMOVED = ("LevelCensus", "state_tree_uniform", "state_tree_discrete", "enumerate_discrete")


def test_every_name_perfbench_reaches_is_exported():
    reached = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        # lib.cd.NAME and cd.NAME, where cd is the imported coindice package
        reached.update(re.findall(r"\bcd\.([A-Za-z]\w*)", path.read_text()))
    assert "check_optimal" in reached
    assert reached <= set(coindice.__all__), sorted(reached - set(coindice.__all__))


def test_test_only_names_are_gone():
    for name in REMOVED:
        assert name not in coindice.__all__
        assert not any(hasattr(module, name) for module in (coindice, ddg, oracle)), name
    assert not hasattr(coindice.ProbabilityVector, "prob")
    assert not hasattr(coindice.ReplaySource, "remaining")
    assert type(ddg.census(ddg.build_from_uniform(3, 2))) is dict
