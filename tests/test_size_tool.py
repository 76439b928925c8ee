"""tools/size.py prints the package's two size figures: the lines of
src/spraydirac/*.py and its knobs (defaulted parameters plus defaulted
dataclass fields, counted by AST)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_size_prints_the_line_and_knob_counts_of_the_checkout():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "size.py"), str(ROOT)],
                         capture_output=True, text=True, check=True).stdout
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src" / "spraydirac").glob("*.py"))
    assert out.splitlines()[0] == f"lines: {lines:,}"
    assert out.splitlines()[1].startswith("knobs: ")


def test_knobs_counts_defaulted_parameters_and_dataclass_fields():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import size
    finally:
        sys.path.remove(str(ROOT / "tools"))
    import ast
    src = ("from dataclasses import dataclass, field\n"
           "def f(a, b=1, *, c, d=2): pass\n"
           "g = lambda x, y=0: x\n"
           "@dataclass(frozen=True)\n"
           "class P:\n"
           "    n: int\n"
           "    m: int = 0\n"
           "    k: list = field(default_factory=list)\n"
           "class Q:\n"
           "    r: int = 3\n")
    assert size.knobs(ast.parse(src)) == 5
