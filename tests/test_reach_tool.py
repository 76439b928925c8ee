"""tools/reach.py lists the statements of functions that no recorded job
executes; its core is tried here on a tiny module, without a full run."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY = '''\
"""A module docstring."""
LIMIT = 3


class Box:
    size = 2

    def grow(self, k):
        """A method docstring."""
        if k > LIMIT:
            return k
        try:
            k += 1
        except TypeError:
            k = 0
        return k


def unused():
    return 1
'''


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_lists_the_statements_no_call_executed(tmp_path):
    reach = _load(ROOT / "tools" / "reach.py", "reach")
    path = tmp_path / "tiny.py"
    path.write_text(TINY, encoding="utf-8")
    tiny = _load(path, "tiny")
    lines = reach.executed_lines(lambda: tiny.Box().grow(1), tmp_path)
    assert list(lines) == [str(path.resolve())]
    got = reach.unreached(path, lines[str(path.resolve())])
    # no top level, class body, docstring, def line or bare try
    assert got == [("Box.grow", 11, "return k"),
                   ("Box.grow", 14, "except TypeError:"),
                   ("Box.grow", 15, "k = 0"),
                   ("unused", 20, "return 1")]


def test_code_outside_the_root_is_not_traced(tmp_path):
    reach = _load(ROOT / "tools" / "reach.py", "reach")
    before = sys.gettrace()
    assert reach.executed_lines(lambda: sorted([3, 1, 2]), tmp_path) == {}
    assert sys.gettrace() is before
