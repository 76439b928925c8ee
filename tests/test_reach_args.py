"""tools/reach.py's arguments: which traced children a run starts.  No child
is started here; a full run takes minutes."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("symbolic", "flow", "certify")


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, runs", [
    ([], [["--lines", "symbolic"], ["--lines", "flow"], ["--lines", "certify"]]),
    (["flow"], [["--lines", "flow"]]),
    (["--tests"], [["--lines", "symbolic"], ["--lines", "flow"], ["--lines", "certify"],
                   ["--test-lines"]]),
    (["certify", "--tests", "symbolic"], [["--lines", "certify"], ["--lines", "symbolic"],
                                          ["--test-lines"]]),
])
def test_each_named_workload_and_the_tests_get_one_child(argv, runs):
    assert _reach().children(argv, WORKLOADS) == runs


@pytest.mark.parametrize("argv", [["symbolc"], ["--test"], ["flow", "--lines"]])
def test_an_unknown_argument_is_refused_before_any_child_starts(argv):
    with pytest.raises(SystemExit, match=f"unknown workload '{argv[-1]}'"):
        _reach().children(argv, WORKLOADS)
