"""The benchmark tracer names functions by string; each must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_is_a_function_of_its_module(monkeypatch):
    # load without writing bytecode next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{short}.{name}"
               for short, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"spraydirac.{short}"),
                                       name, None))]
    assert missing == []
