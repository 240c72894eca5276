"""The reference kernel: a fixed piece of work that measures the host's speed.

On a shared host the CPU time of the same work moves by up to 1.7x within
an hour, and by about 15% from one second to the next (see README.md).
Every benchmark process times this kernel beside its jobs, and run.py
divides the jobs' CPU times by the kernel's, so a figure moves when the
program's speed moves and not when the host's does.
The kernel calls no usdsep code, so no change to the program can alter it.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# CPU seconds the kernel takes on the host the bounds were set on (two-vCPU
# KVM guest, Intel Xeon); run.py reports times scaled to this speed.
NOMINAL_S = 0.045


@functools.cache
def _operands():
    """The kernel's fixed inputs, built on first use so that no set-up time pays for them."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((96, 96))
    tall = rng.standard_normal((49, 14))
    masks = [np.arange(14) % 3 != k for k in range(3)]
    return a, a + a.T, tall, rng.standard_normal(49), masks


def reference_kernel() -> list[float]:
    """CPU seconds of one run of the kernel's three parts.

    Interpreted Python, many small numpy calls (least squares on column
    subsets of a 49 x 14 matrix, as an active-set NNLS step makes them),
    and mid-sized LAPACK/BLAS calls: about a third of the kernel's time
    each.  A stream over large arrays is left out: its time did not follow
    the jobs' times at all (correlation 0.0 to 0.3 against 0.6 to 0.7 for
    each of the three parts).
    """
    a, h, tall, rhs, masks = _operands()
    c0 = time.process_time()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    c1 = time.process_time()
    for k in range(240):
        sub = tall[:, masks[k % 3]]
        z = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        int(np.argmax(tall.T @ (rhs - sub @ z)))
    c2 = time.process_time()
    for _ in range(8):
        np.linalg.eigh(h)
        a @ a
    c3 = time.process_time()
    return [c1 - c0, c2 - c1, c3 - c2]
