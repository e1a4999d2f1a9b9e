"""Deterministic value formatting for JSON and CSV output.

Numbers are printed with 17 significant digits so float values round-trip
and repeated runs with the same seed produce byte-identical output.  Exact
rationals serialize as "p/q" strings to keep them lossless in JSON.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import GeometryError

FLOAT_FORMAT = "%.17g"


def format_number(value) -> str:
    """Render one numeric value; floats get 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    try:
        if isinstance(value, int):
            return str(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return str(value.numerator)
            return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise GeometryError(
            f"exact value has more than {sys.get_int_max_str_digits()} digits") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} in output")
        return FLOAT_FORMAT % value
    raise TypeError(f"not a number: {value!r}")


def _escape(text: str) -> str:
    out = ["\""]
    for ch in text:
        if ch == "\"":
            out.append("\\\"")
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)


def dumps(value, indent: int = 0) -> str:
    """Serialize to JSON with deterministic number formatting.

    Dicts keep their insertion order (callers build them deterministically);
    Fractions become "p/q" strings.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(value)
    if isinstance(value, Fraction):
        return _escape(format_number(value))
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [dumps(item, indent + 2) for item in value]
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{_escape(str(key))}: {dumps(item, indent + 2)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def csv_cell(value) -> str:
    """Render a CSV cell; numbers use the deterministic format."""
    if value is None:
        return ""
    if isinstance(value, (bool, int, float, Fraction)):
        return format_number(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n\r"):
        return "\"" + text.replace("\"", "\"\"") + "\""
    return text
