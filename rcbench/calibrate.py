"""Machine-speed calibration: a fixed kernel that does not use rcpolar.

On a shared host the benchmark's core runs faster or slower from one minute
to the next (clock frequency, neighbours on sibling hardware threads), by up
to about 40 % for interpreter-bound code.  Each benchmark process times this
kernel between its operations.  The median kernel time over ``REF_NOMINAL_S``
is the process's slowdown.  No change to rcpolar can move the kernel.

Code that leans on the interpreter follows the slowdown fully; vectorised
numpy code follows it less.  So each workload carries a sensitivity ``beta``,
the slope of log operation time on log slowdown, fitted over seeds 11-20 at
the seed commit (``baseline.py`` prints the fit of a set as ``beta_fit``).  ``run.py`` divides
every end-to-end time by ``slowdown ** beta`` and multiplies every rate by it,
so the figures read as on a machine that runs the kernel in
``REF_NOMINAL_S``.  Set-up time uses ``beta = 1``.

The kernel mixes what the workloads do: interpreter-bound loop work, numpy
calls on small arrays, and vectorised transcendentals on a mid-size array.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel CPU time on the machine the baseline was recorded on
# (2 vCPUs of an Intel Xeon VM, Python 3.11, numpy 2.4).
REF_NOMINAL_S = 0.0046

_SMALL = np.arange(256, dtype=np.float64)
_MID = np.linspace(0.05, 20.0, 4096)


def kernel_s() -> float:
    """CPU time of one run of the kernel."""
    t0 = time.process_time()
    for i in range(1000):
        b = _SMALL * 1.0001 + i
        float(b[i & 255]) + sum(range(24))
    for _ in range(24):
        np.log1p(np.exp(-_MID)).sum()
    return time.process_time() - t0


def slowdown(samples: list[float]) -> float:
    """Slowdown of a process: its median kernel time over the nominal one."""
    return statistics.median(samples) / REF_NOMINAL_S
