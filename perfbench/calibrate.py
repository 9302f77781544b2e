"""A fixed computation that sets the unit of the benchmark's pass metrics.

On a shared host the same pass of the program ran anywhere from 1.5 to 3.0
CPU seconds within a few minutes, so a pass's time alone says as much about
the neighbours as about the program.  Each measured pass is therefore run
between two calls of `calibrate()`, on the same CPU, and reported as a
multiple of their mean: one "cal".  In ten 45-second runs in a row of each
workload on a 2-vCPU cloud host, a run's median pass took 2.17 to 2.92 CPU
seconds on scale, a range of 0.28 of their median, and 65.2 to 71.0 cal, a
range of 0.08; on paper-study 0.66 to 0.79 CPU seconds (0.18) and 19.8 to
20.6 cal (0.04).

The computation mixes the kinds of work the workloads do, in about equal
shares: pure-Python exact-rational arithmetic with dict and tuple handling
(design io), the same arithmetic on Fractions scattered over a 60000-object
heap, so that it waits on cache misses as the Fraction model matrices do,
and memory-bound numpy array arithmetic (the FDS kernel).  It never
changes, and it does not call oamix, so a change to the program moves the
pass metrics and not their unit.  Its arrays and heap, about 20 MB, are part
of the workload process's peak_rss_mb.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

_ROWS, _COLS = 20_000, 36
_HEAP_SIZE = 60_000
_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
_heap: list[Fraction] = []


def _python_part() -> int:
    total = Fraction(0)
    seen = {}
    for i in range(1, 2600):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        seen[(i, i % 5)] = total.numerator % 97
    return len(seen)


def _heap_part() -> int:
    bits = 0
    for i in range(2_000):
        a = _heap[i * 7919 % _HEAP_SIZE]
        b = _heap[i * 104729 % _HEAP_SIZE]
        bits += (a * b + b).numerator.bit_length()
    return bits


def _numpy_part() -> float:
    a, m, out = _arrays
    total = 0.0
    for _ in range(4):
        np.matmul(a, m, out=out)
        np.multiply(out, a, out=out)
        total += float(out.sum())
    return total


def calibrate() -> float:
    """CPU seconds of one run of the calibration computation.

    The first call builds its arrays and heap; later calls allocate nothing
    large, so the program's heap does not change their cost.
    """
    global _arrays
    if _arrays is None:
        rng = np.random.default_rng(20241004)
        _arrays = (rng.standard_normal((_ROWS, _COLS)), rng.standard_normal((_COLS, _COLS)) / 6.0,
                   np.empty((_ROWS, _COLS)))
        draw = random.Random(20241004)
        _heap.extend(Fraction(draw.randrange(1, 1000), draw.randrange(1, 64)) for _ in range(_HEAP_SIZE))
        draw.shuffle(_heap)
    start = time.process_time()
    _python_part()
    _heap_part()
    _numpy_part()
    return time.process_time() - start
