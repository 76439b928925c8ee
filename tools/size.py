"""Print the two size figures of the package: the lines of
src/spraydirac/*.py, and its knobs, counted by AST as the defaulted
parameters of every function plus the defaulted fields of every dataclass.

    python tools/size.py [ROOT]

ROOT is the checkout (default: the one this file is in)."""

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def knobs(tree: ast.AST) -> int:
    """Defaulted parameters plus defaulted dataclass fields."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def sizes(root: Path) -> tuple[int, int]:
    """(lines, knobs) of root/src/spraydirac/*.py."""
    lines = knob_count = 0
    for path in sorted((root / "src" / "spraydirac").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        knob_count += knobs(ast.parse(text))
    return lines, knob_count


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    lines, knob_count = sizes(root)
    print(f"lines: {lines:,}")
    print(f"knobs: {knob_count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
