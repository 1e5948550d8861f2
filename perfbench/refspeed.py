"""The machine's speed, read from a fixed reference kernel run between ops.

On a host that is a few cores of a shared machine, the speed can swing by up
to half between spells that last from seconds to minutes, across whole runs.
A raw time then says more about the spell a run fell in than about monolab.
So the worker runs `probe` between ops, and every time the benchmark reports
is scaled to the reference speed: the raw time over the probe's slowdown
(its time over REFERENCE_S) near that moment.  The kernel is the
benchmark's own code and calls nothing in monolab, so a change to monolab
moves the scaled times exactly as it moves the raw ones; only the host's
speed cancels.

The kernel mixes the interpreted work monolab spends its time on: a
pure-Python integer loop, dict-of-tuple updates with Fraction values (as in
the structure constant tables), int64 products mod a prime, and row updates
and pivot searches on tiny int64 rows, one numpy call each (as in the
streamed h1 solver).  Of the subsets of these four parts, all four together
tracked lie-scan and small-group-oracle best.  On the 2-vCPU host the benchmark was built on,
the slow spells slowed interpreted code far more than bulk array work, so a
kernel of bulk array work (row updates on a few-MB int64 array, as in
h1_naive) was tried too: it barely moved, and scaling by it left
small-group-oracle's spread as it was, while this kernel cut it by half, as
it did on the other workloads.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's median time on the machine that calibrated costs.json (2 vCPUs,
# Python 3.11.7, numpy 2.4.6), so scaled times read as seconds there.
REFERENCE_S = 0.011
NEAREST = 5  # an op's speed is the median of the probes nearest to it in time

_A = (np.arange(48 * 48, dtype=np.int64).reshape(48, 48) * 7919) % 1009
_ROWS = [np.arange(8, dtype=np.int64) * k % 101 for k in range(1, 9)]


def _kernel():
    s = 0
    for i in range(30000):
        s += i * i % 7
    table = {}
    for i in range(500):
        key = (i % 31, i % 29, i % 23)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 1)
    m = _A
    for _ in range(20):
        m = (m @ _A) % 1009
    first = 0
    for i in range(300):
        v = (_ROWS[i % 8] * (i + 1) - _ROWS[(i + 3) % 8]) % 101
        nz = v.nonzero()[0]
        if nz.size:
            first += int(v[nz[0]])
    return s, len(table), int(m[0, 0]), first


def probe() -> tuple[float, float]:
    """Run the kernel once; returns its midpoint on perf_counter's clock and
    its time over REFERENCE_S, i.e. how much slower than the reference the
    machine runs now."""
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, (t1 - t0) / REFERENCE_S


def speed(probes: list, at: float | None = None) -> float:
    """The median slowdown of `probes`: 1.0 at the reference speed.

    With `at`, only the NEAREST probes to that moment count; otherwise all do.
    """
    if at is not None:
        probes = sorted(probes, key=lambda p: abs(p[0] - at))[:NEAREST]
    return statistics.median(p[1] for p in probes)
