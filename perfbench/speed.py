"""The machine-speed reference that every reported time is scaled by.

The benchmark runs on shared hosts whose speed drifts with the
neighbours' load: a fixed loop can take 20% longer in one half-minute
than in the next, and graphfix's own work slows with it.  So each run
also times this fixed reference loop, interleaved with the requests
(before each timed block and each set-up sample), and reports every time
scaled by REFERENCE_S / (mean reference time): seconds on a machine that
runs the reference in REFERENCE_S.  On such a host this brought the
run-to-run spread of the times from 10-20% down to 3-10% of the median.
The raw times stay in the run's record.

The loop mixes the two kinds of work graphfix does: interpreted Python
(integer arithmetic, dict and list traffic) and single-threaded numpy
array arithmetic.  It leaves out multi-threaded BLAS, whose speed
depends on the other core's load far more than graphfix's does.  It
does not call graphfix, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# The reference loop's mean time on the 2-core x86-64 sandbox the
# benchmark was defined on (Python 3.11, numpy with OpenBLAS).
REFERENCE_S = 0.014

_V = np.linspace(0.0, 1.0, 20_000)


def reference_loop() -> float:
    """Run the fixed reference work once and return its wall time."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(50_000):
        acc += i * i % 7
        table[i & 1023] = acc
    items = sorted(table.values())
    v = _V
    for _ in range(25):
        v = np.tanh(v * 1.0001) + np.sqrt(np.abs(v) + 1.0)
    if not (items and np.isfinite(v).all()):
        raise RuntimeError("reference loop produced no result")
    return time.perf_counter() - start
