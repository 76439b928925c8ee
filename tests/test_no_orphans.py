"""Code that no caller needs gets deleted: every function, method and class
of the package is named somewhere in the package, outside its own
definition, except the functions the benchmark tracer names (bench/spans.py's
TRACED), which stay until the tracer stops naming them."""

import ast
import importlib.util
import sys
from pathlib import Path

import spraydirac

PACKAGE = Path(spraydirac.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _orphans() -> set[tuple[str, str]]:
    """(module, name) of each non-dunder def and class of the package's
    modules whose name is never read, as a name or an attribute, in it."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    return {(module, n.name)
            for module, tree in trees.items() if module != "__init__"
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))
            and n.name not in read}


def test_every_definition_without_a_caller_is_one_the_tracer_names(monkeypatch):
    # load without writing bytecode next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {(module, name) for module, names in spans.TRACED.items() for name in names}
    assert _orphans() - traced == set()
