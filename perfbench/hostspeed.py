"""Host-speed correction for wall times measured on a shared host.

On the 2-vCPU Intel Xeon VM this benchmark was written on, phases in which
a CPU runs up to 1.8x slower come and go; some last seconds, some tens of
seconds. Their cause lies outside the VM, and process CPU time slows down
as much as wall time. Uncorrected, they alone spread the timings of one
workload by 20-40 % between runs.

So the benchmark times a fixed reference kernel next to every measured
value: small NumPy solves and products in a Python loop, the same mix of
interpreter work and tiny-array calls that sldl spends its time on. A value
measured while the reference took r seconds is scaled by ``REFERENCE_S / r``.
``REFERENCE_S`` is the kernel's time on an uncontended CPU of that host, so
corrected values are seconds at its uncontended speed. The raw wall times
are reported next to them.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 3.0e-3

_A = np.array([[2.0, 0.3], [0.1, 1.5]])
_B = np.array([1.0, 2.0])


def reference_time(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        x = _B
        acc = 0.0
        for _ in range(300):
            x = np.linalg.solve(_A, x + _B)
            acc += float(np.sum(np.abs(_A @ x) ** 2))
        best = min(best, time.perf_counter() - t0)
    return best


def corrected(value: float, reference: float) -> float:
    return value * REFERENCE_S / reference
