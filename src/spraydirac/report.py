"""Report assembly and rendering.

Reports are built as ordered dicts of plain values (strings, numbers,
lists, nested dicts) so the text and JSON renderings carry the same keys
in the same order.  Everything except the trailing timing field must be
byte-identical across runs with the same input and seed.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

__all__ = ["input_digest", "normalize", "to_text", "to_json"]


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(value):
    """One value with numpy scalars and Fractions coerced to JSON-safe ones,
    and tuples and ndarrays as lists; a container's items are left as they
    are."""
    if isinstance(value, (dict, list)):
        return value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


def normalize(value):
    """The report with every value coerced as _plain coerces it, and str keys."""
    value = _plain(value)
    if isinstance(value, dict):
        return {str(k): normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [normalize(v) for v in value]
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


def _float_json(v: float) -> str:
    if math.isfinite(v):
        return float.__repr__(v)
    if v != v:
        return "NaN"
    return "Infinity" if v > 0 else "-Infinity"


def _json_text(value, pad: str) -> str:
    """The JSON text of value at indent pad, as json.dumps(indent=2) writes
    it after normalize."""
    value = _plain(value)
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join(f"{_json_str(str(k))}: {_json_text(v, inner)}"
                                    for k, v in value.items())
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = pad + "  "
        # trajectory rows are lists of floats
        body = (",\n" + inner).join([_float_json(v) if type(v) is float else _json_text(v, inner)
                                     for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_json(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def to_json(report: dict) -> str:
    """The text of json.dumps(normalize(report), indent=2) plus a newline,
    written in one walk: floats as float.__repr__ or NaN, Infinity and
    -Infinity, strings ASCII-escaped."""
    return _json_text(report, "") + "\n"
