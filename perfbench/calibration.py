"""Host-speed reference: a fixed kernel timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 1.8x over phases of seconds to minutes (the same op, same inputs,
same process).  Process CPU time drifts with it, so the drift is in the
cores, not in scheduling.  The worker therefore times this kernel before
the first op and after every op; the kernel uses no qm1d code, so a change
to the program cannot move it.  ``run.py`` divides each op's wall time by
the mean of the two kernel times around it and scales by
``NOMINAL_S`` — the kernel's median on the reference machine — giving op
seconds at that machine's speed.  Raw wall times stay in ``report.json``.

The kernel mixes the two kinds of work the workloads do: interpreter work
(dict updates, float formatting, small loops) and numpy work on arrays of
the workloads' grid size (FFTs, reductions, elementwise products).
"""

from __future__ import annotations

import time

import numpy as np

# Median of kernel() on the machine the benchmark was defined on (2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4).  Fixed: changing it rescales
# every op figure.
NOMINAL_S = 0.065

_N = 2048
_rng = np.random.default_rng(0)
_PSI = _rng.standard_normal(_N) + 1j * _rng.standard_normal(_N)


def _interpreter() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(60000):
        table[i & 1023] = total
        total += i * 3 % 7
        if i % 8 == 0:
            f"{total * 1.000001:.15g}"
    return total


def _numpy() -> float:
    psi, acc = _PSI, 0.0
    for _ in range(300):
        psi = np.fft.ifft(np.fft.fft(psi) * 0.999)
        acc += float(np.sum(np.abs(psi) ** 2))
        np.gradient(psi.real)
    return acc


def kernel() -> float:
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    _interpreter()
    _numpy()
    return time.perf_counter() - start
