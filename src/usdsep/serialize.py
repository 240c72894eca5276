"""JSON emission for instance files and reports, and the [re, im] reader.

Reports and instance files are written on one line, as the stdlib json
module writes them.  Floats take the shortest text that parses back to the
same double, so loading an emitted file and emitting it again reproduces
the same bytes.  A 1-D float64 array at the top level of a report (the
per-label weights and overlaps of ``optimize``) is written here rather than
as a list: the distinct values, told apart by their bits so that -0.0 and
0.0 stay two values, are written once by json itself, and its texts are
repeated where the values repeat and joined with json's ", " separator.
The bytes are those of ``json.dumps(array.tolist())``; an optimal report's
2D entries hold two distinct values, so they cost two formats rather than
2D.  An array in which nothing repeats is written as its list, at the cost
of one sort more.  NaN and infinities are not JSON and raise ValueError,
both when written (in a list or in an array) and when read as [re, im]
pairs.  Complex matrices are only read, never written: the nested [re, im]
pairs of a certify measurement file, or of the states in an instance file
from an earlier version.
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
    """``json.dumps(arr.tolist(), allow_nan=False)``, formatting each distinct value once."""
    bits = arr.view(np.int64)
    if arr.size and (bits == bits[0]).all():  # an optimal report's arrays, with no sort
        return f"[{', '.join([json.dumps(float(arr[0]), allow_nan=False)] * arr.size)}]"
    ordered = np.sort(bits)
    if (ordered[1:] != ordered[:-1]).all():  # nothing repeats, so json formats each value once too
        return json.dumps(arr.tolist(), allow_nan=False)
    bits, inverse = np.unique(bits, return_inverse=True)
    # json writes the distinct values as a list, no float text holds ", ", and non-finite ones raise.
    texts = json.dumps(bits.view(np.float64).tolist(), allow_nan=False)[1:-1].split(", ")
    return f"[{', '.join(np.array(texts, dtype=object)[inverse].tolist())}]"


def pairs_to_matrix(rows) -> np.ndarray:
    """Complex matrix from nested [re, im] pairs of finite numbers; else a ValueError."""
    arr = np.asarray(rows)
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.dtype.kind not in "iuf":
        raise ValueError(
            f"expected rows of [re, im] number pairs, got shape {arr.shape} of {arr.dtype}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("[re, im] pairs must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]
