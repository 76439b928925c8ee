"""Report assembly and rendering.

Reports are built as ordered dicts of plain values (strings, numbers,
lists, nested dicts) so the text and JSON renderings carry the same keys
in the same order.  Everything except the trailing timing field must be
byte-identical across runs with the same input and seed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

__all__ = ["input_digest", "normalize", "to_text", "to_json"]


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalize(value):
    """Coerce numpy scalars, Fractions and tuples to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [normalize(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return "none"
    return str(v)


def _is_scalar(v) -> bool:
    return not isinstance(v, (dict, list))


def _render(key: str, val, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(val, dict):
        out.append(f"{pad}{key}:")
        for k, v in val.items():
            _render(k, v, indent + 1, out)
    elif isinstance(val, list):
        if all(_is_scalar(v) for v in val):
            body = ", ".join(_fmt_scalar(v) for v in val)
            out.append(f"{pad}{key}: [{body}]")
        else:
            out.append(f"{pad}{key}:")
            for i, v in enumerate(val):
                _render(f"{key}[{i}]", v, indent + 1, out)
    else:
        out.append(f"{pad}{key}: {_fmt_scalar(val)}")


def to_text(report: dict) -> str:
    out: list[str] = []
    for k, v in report.items():
        _render(k, v, 0, out)
    return "\n".join(out) + "\n"


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
