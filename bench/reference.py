"""A fixed reference task that tells how fast the machine runs right now.

It calls nothing in folicalc and must never change: run.py rescales every
job and import time by it (see run.py).  It does the same kinds of work as
the package (rational arithmetic, tuple keys, dict updates, sorting, str of
Fractions) and takes about 2 ms on a 2-vCPU VM running Python 3.11.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction


def task():
    table = {}
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        key = tuple(sorted(((i * 7) % 5, (i * 3) % 4, i % 3)))
        table[key] = table.get(key, Fraction(0)) + total
    return "".join(str(value) for _, value in sorted(table.items()))


def timed():
    """Seconds the task takes now.  The collector is off so that the heap
    left by earlier work cannot slow the task."""
    gc.disable()
    try:
        start = time.perf_counter()
        task()
        return time.perf_counter() - start
    finally:
        gc.enable()


def median_time(repeats):
    return statistics.median(timed() for _ in range(repeats))
