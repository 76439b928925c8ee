"""Every generated module defines one function, and a compile_exprs module
holds each output's source once: .rows maps that function over the rows."""

import ast
from pathlib import Path

import pytest

from spraydirac import expr
from spraydirac.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def _count(tree: ast.AST, node: ast.AST) -> int:
    want = ast.dump(node)
    return sum(ast.dump(n) == want for n in ast.walk(tree))


@pytest.fixture
def modules(monkeypatch):
    """The text of each module _exec_def runs, from empty caches."""
    seen = []
    real = expr._exec_def

    def spy(lines, **names):
        seen.append("\n".join(lines))
        return real(lines, **names)

    expr.clear_caches()
    monkeypatch.setattr(expr, "_exec_def", spy)
    yield seen
    expr.clear_caches()


def test_each_generated_module_defines_one_function(modules, tmp_path, capsys):
    rk45 = tmp_path / "ex1_rk45.sdp"
    rk45.write_text((PROBLEMS / "ex1.sdp").read_text(encoding="utf-8")
                    .replace("method=rk4", "method=rk45"), encoding="utf-8")
    runs = [(cmd, str(PROBLEMS / f"ex{i}.sdp")) for i in range(1, 5)
            for cmd in ("verify", "integrate")] + [("integrate", str(rk45))]
    for cmd, path in runs:
        assert main([cmd, path, "--json"]) == 0, (cmd, path)
    capsys.readouterr()

    names = []
    for text in modules:
        tree = ast.parse(text)
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        assert len(defs) == 1, text
        names.append(defs[0].name)
        if defs[0].name != "_compiled":
            continue
        outputs = defs[0].body[-1].value
        assert isinstance(outputs, ast.Tuple) and outputs.elts, text
        for out in outputs.elts:
            # as often as one tuple of the outputs holds it, not once more
            assert _count(tree, out) == _count(outputs, out), (ast.unparse(out), text)
    # drift and the rk45 field compile expressions; rk4 compiles its step
    assert {"_compiled", "_step"} <= set(names)
