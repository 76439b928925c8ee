"""List the statements of the package that no recorded benchmark job executes.

    python3 tools/reach.py [--tests] [symbolic flow certify]

Runs every recorded job of each workload through tools/check_digests.py's
run_jobs (one child process per workload, with the benchmark's environment),
under a sys.settrace that records the executed lines of src/spraydirac
only.  With --tests, one more traced child runs the tier-1 tests
(`pytest -q -p no:cacheprovider tests`), whose outcomes are ignored: a test
may fail under the tracer, and the run takes minutes.  Then prints, per
module and function, each statement that no job (and no test) executed: one
line `module.function: line N: <source>`.  Module top level, docstrings and
`def`/`class` lines are left out; a compound statement counts as executed
when any line of its header is.  bench/ is only read.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spraydirac"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# statements with no line of their own to execute
_SILENT = (ast.Global, ast.Nonlocal, ast.Try)


def executed_lines(run: Callable[[], object], root: Path) -> dict[str, set[int]]:
    """Call run() under a sys.settrace; return the executed lines of each
    file under root, by resolved path.  A code object whose every line has
    been seen is not traced again."""
    prefix = os.path.realpath(root) + os.sep
    seen: dict[str, set[int]] = {}
    # code object -> (its lines not yet seen, its file's seen lines), or None
    # for code outside root (generated code has no absolute file name)
    state: dict = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in state:
            name = code.co_filename
            path = os.path.realpath(name) if os.path.isabs(name) else ""
            state[code] = (({ln for _, _, ln in code.co_lines() if ln is not None},
                            seen.setdefault(path, set())) if path.startswith(prefix) else None)
        if state[code] is None or not state[code][0]:
            return None
        todo, hit = state[code]

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
                todo.discard(frame.f_lineno)
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


_BLOCKS = ("body", "orelse", "finalbody", "handlers")


def _statements(body: list, scope: str, in_def: bool):
    """(qualified function name, statement) of each statement under body
    that runs inside a function, docstrings left out.  A class or function
    extends the name; an except clause counts as a statement."""
    for node in body:
        if isinstance(node, _SCOPES):
            inner = f"{scope}.{node.name}" if scope else node.name
            yield from _statements(node.body, inner, not isinstance(node, ast.ClassDef))
            continue
        docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        if in_def and not docstring and not isinstance(node, _SILENT):
            yield scope, node
        for block in _BLOCKS:
            yield from _statements(getattr(node, block, []), scope, in_def)
        for case in getattr(node, "cases", []):
            yield from _statements(case.body, scope, in_def)


def _header_lines(node: ast.AST) -> range:
    """The lines of a statement up to its first nested statement."""
    nested = [c.lineno for block in _BLOCKS for c in getattr(node, block, [])]
    end = min(nested) if nested else node.end_lineno + 1
    return range(node.lineno, max(end, node.lineno + 1))


def unreached(path: Path, lines: set[int]) -> list[tuple[str, int, str]]:
    """(function, line, source) of each statement in the functions of the
    file at path none of whose header lines is in lines."""
    text = Path(path).read_text(encoding="utf-8")
    src = text.splitlines()
    return [(scope, node.lineno, src[node.lineno - 1].strip())
            for scope, node in _statements(ast.parse(text).body, "", False)
            if not any(ln in lines for ln in _header_lines(node))]


def _workload_lines(workload: str) -> dict[str, set[int]]:
    """Executed package lines over every recorded job of one workload."""
    sys.path[:0] = [str(ROOT / "tools")]
    from check_digests import run_jobs

    return executed_lines(lambda: collections.deque(run_jobs(workload), 0), PACKAGE)


def _test_lines() -> dict[str, set[int]]:
    """Executed package lines over one tier-1 run, whatever its outcome; its
    own output goes to stderr."""
    import pytest

    os.chdir(ROOT)
    with contextlib.redirect_stdout(sys.stderr):
        return executed_lines(lambda: pytest.main(["-q", "-p", "no:cacheprovider", "tests"]),
                              PACKAGE)


def children(argv: list[str], workloads: tuple[str, ...]) -> list[list[str]]:
    """The arguments of each traced child: one --lines WORKLOAD per workload
    named in argv (all of them when none is), and --test-lines for --tests."""
    names = [a for a in argv if a != "--tests"]
    unknown = [a for a in names if a not in workloads]
    if unknown:
        raise SystemExit(f"unknown workload {unknown[0]!r}; expected --tests or one of "
                         f"{', '.join(workloads)}")
    runs = [["--lines", w] for w in names or workloads]
    return runs + [["--test-lines"]] * ("--tests" in argv)


def main(argv: list[str]) -> int:
    if argv[:1] in (["--lines"], ["--test-lines"]):
        got = _workload_lines(argv[1]) if argv[0] == "--lines" else _test_lines()
        print(json.dumps({path: sorted(ls) for path, ls in got.items()}))
        return 0
    sys.path[:0] = [str(ROOT / "bench")]
    from run import WORKLOADS, child_env

    lines: dict[str, set[int]] = {}
    for args in children(argv, WORKLOADS):
        out = subprocess.run([sys.executable, __file__, *args], env=child_env(),
                             capture_output=True, text=True, check=True).stdout
        for path, ls in json.loads(out).items():
            lines.setdefault(path, set()).update(ls)
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, ln, src in unreached(path, lines.get(os.path.realpath(path), set())):
            print(f"{path.stem}.{scope}: line {ln}: {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
