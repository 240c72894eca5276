"""JSON emission for instance files and reports, and the [re, im] reader.

Reports and instance files are written on one line, as the stdlib json
module writes them.  Floats take the shortest text that parses back to the
same double, so loading an emitted file and emitting it again reproduces
the same bytes.  A 1-D float64 array at the top level of a report (the
per-label weights and overlaps of ``optimize``) is written here rather than
as a list, with the bytes of ``json.dumps(array.tolist())``.  When all its
entries share one bit pattern, as every array of an optimal report does,
that value is formatted once and its text repeated; any other array is
written as its list.  NaN and infinities are not JSON and raise
ValueError, both when written (in a list or in an array) and when read as
[re, im] pairs.  Complex matrices are only read, never written: the nested
[re, im] pairs of a certify measurement file.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["dumps", "pairs_to_matrix"]


def dumps(obj) -> str:
    """One line of JSON text, newline-terminated; non-finite floats raise ValueError.

    Top-level 1-D float64 array values are written as JSON lists.
    """
    if not (isinstance(obj, dict) and any(map(_is_float_vector, obj.values()))):
        return json.dumps(obj, allow_nan=False) + "\n"
    # Each item is json's own text of a one-item dict, braces stripped, so keys convert as json's do.
    parts = [
        json.dumps({key: 0})[1:-2] + _array_text(value)
        if _is_float_vector(value)
        else json.dumps({key: value}, allow_nan=False)[1:-1]
        for key, value in obj.items()
    ]
    # Braces go on the end parts, so the whole text is built by one join, not copied after it.
    parts[0] = "{" + parts[0]
    parts[-1] += "}\n"
    return ", ".join(parts)


def _is_float_vector(value) -> bool:
    return isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64


def _array_text(arr: np.ndarray) -> str:
    """``json.dumps(arr.tolist(), allow_nan=False)``, formatting an all-equal array's value once."""
    bits = arr.view(np.int64)
    if arr.size and (bits == bits[0]).all():  # an optimal report's arrays
        return f"[{', '.join([json.dumps(float(arr[0]), allow_nan=False)] * arr.size)}]"
    return json.dumps(arr.tolist(), allow_nan=False)


def pairs_to_matrix(rows) -> np.ndarray:
    """Complex matrix from nested [re, im] pairs of finite numbers; else a ValueError.

    It reads the factor matrices of a certify measurement file.  A JSON
    true or false is not a number, although np.asarray reads one that sits
    beside numbers as 1 or 0, so one pass over the entries refuses it.
    """
    arr = np.asarray(rows)
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.dtype.kind not in "iuf":
        raise ValueError(
            f"expected rows of [re, im] number pairs, got shape {arr.shape} of {arr.dtype}"
        )
    if any(type(x) is bool for row in rows for pair in row for x in pair):
        raise ValueError("[re, im] pairs must be numbers, not true or false")
    if not np.all(np.isfinite(arr)):
        raise ValueError("[re, im] pairs must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]
