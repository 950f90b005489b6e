"""The benchmark's reference task: a fixed pure-Python kernel that runs no corrdyn code.

Its time moves only with the speed of the machine, so a job's time over the
reference time measured right after it is steady while the machine's speed
swings.  ``python3 perfbench/reference.py`` runs the kernel once in a fresh
interpreter, the reference for jobs that are child processes.
"""

from __future__ import annotations

import math
from time import perf_counter


def kernel():
    """Fraction-free elimination of a fixed 16x16 integer matrix: pure Python, big integers."""
    n = 16
    m = [[(i * 7919 + j * 104729) % 65521 - 32760 + (i == j) * 70001 for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def best_of(calls: int) -> float:
    """The fastest of `calls` kernel calls in this process, in seconds."""
    best = math.inf
    for _ in range(calls):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


if __name__ == "__main__":
    kernel()
