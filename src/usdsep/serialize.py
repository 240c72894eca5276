"""Canonical JSON emission for instance files and reports.

Floats are formatted with %.17g, which round-trips IEEE doubles exactly:
parsing an emitted file and re-emitting it reproduces the same bytes.  The
stdlib json module writes shortest-round-trip floats instead, which is why
emission is hand-rolled here; parsing stays plain json.loads.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "dumps", "matrix_to_pairs", "pairs_to_matrix"]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def _emit(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            out.append(inner + json.dumps(key) + ": ")
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if all(_is_number(v) for v in items):
            # Numeric leaf lists stay on one line; [re, im] pairs dominate.
            out.append("[" + ", ".join(_scalar(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(inner)
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON text with canonical float formatting."""
    out: list[str] = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def matrix_to_pairs(m) -> list:
    """Nested [re, im] pairs for a complex matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def pairs_to_matrix(rows):
    """Complex matrix from nested [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])
