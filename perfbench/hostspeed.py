"""The host's current speed, from a fixed kernel timed next to the work.

The benchmark host is shared: the same code, on the same inputs, runs up
to 1.8x slower for seconds to minutes at a time, and a 22 s run can fall
wholly in a slow spell.  So the benchmark times a fixed kernel, which does
not touch the package, between requests and reports each request's time
scaled by REF_S / kernel time: the seconds it would take on a reference
host on which the kernel takes REF_S.  The spells last far longer than the
gap between two kernel timings, so the scaling cancels most of them out.
Over repeated passes of about 3 s through one fixed set of requests, the
passes' total time had a coefficient of variation of 8% in wall seconds
and of 2% in reference seconds with the kernel timed every 0.1 s (2.5%
with every 0.25 s, 4% with every 0.5 s).  A kernel that also read a
4 MB buffer at scattered places matched some workloads better and
others worse, so the kernel stays small.

The kernel mixes the two kinds of work requests do: bytecode run by the
interpreter and updates of small dense numpy arrays.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on an unloaded core of the host the benchmark was
# defined on (Intel Xeon, 2 vCPUs); the constant only sets the scale.
REF_S = 0.0025

_MATRIX = np.arange(400, dtype=float).reshape(20, 20) / 7.0


def _kernel() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    m = _MATRIX.copy()
    for k in range(60):
        row = m[k % 20]
        m -= np.outer(m[:, k % 20], row) / (row[k % 20] + 1.0)
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Median of three timings of the kernel, in seconds; the median drops
    a timing that an interrupt stretched."""
    return statistics.median(_kernel() for _ in range(3))
