"""Reference kernel that measures the current speed of the shared core.

On a machine whose cores are shared with other tenants, the speed of a
core drifts by tens of percent within seconds, and CPU time tracks wall
time, so repeated runs of identical work disagree.  The benchmark runs
this fixed kernel next to every timed call and reports each timing in
nominal seconds: measured seconds * NOMINAL_S / kernel seconds, i.e. the
time the call would take on a core that runs the kernel in NOMINAL_S.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on an uncontended core of a 2-vCPU x86-64 cloud machine
# (numpy 2.4, OpenBLAS 0.3.31); it only fixes the unit of the report.
NOMINAL_S = 0.015


class ReferenceKernel:
    """Calling it runs a fixed mix of LAPACK and interpreter work; returns seconds."""

    def __init__(self):
        self._mats = np.random.default_rng(0).standard_normal((100, 20, 20))
        # bound now, so that a tracer wrapping numpy.linalg later never sees it
        self._eigvals = np.linalg.eigvals

    def __call__(self) -> float:
        start = time.perf_counter()
        self._eigvals(self._mats)
        x = 0
        for i in range(100_000):
            x += i * i
        return time.perf_counter() - start
