"""JSON emission for instance files and reports, and the [re, im] reader.

Reports and instance files are written by the stdlib json module on one
line.  Floats take the shortest text that parses back to the same double,
so loading an emitted file and emitting it again reproduces the same bytes.
NaN and infinities are not JSON and raise ValueError, both when written and
when read as [re, im] pairs.  Complex matrices are only read, never
written: the nested [re, im] pairs of a certify measurement file, or of the
states in an instance file from an earlier version.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["dumps", "pairs_to_matrix"]


def dumps(obj) -> str:
    """One line of JSON text, newline-terminated; non-finite floats raise ValueError."""
    return json.dumps(obj, allow_nan=False) + "\n"


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
