"""Host-speed calibration for the end-to-end times.

On a shared host, other tenants slow a run down by 20-40%, and the
slowdown changes from one second to the next; every kind of work slows by
about the same factor.  The workers therefore interleave a fixed kernel
with the workload, and scale every time measured in a round by
REFERENCE_S over the kernel's mean time in that round.  The mean, not the median, because a long operation
slows in proportion to the share of its time the host is contended, and
so does the mean of many short kernel samples; a 10% trim on each side
drops single stalls.  The report line keeps the unscaled times.

The kernel mixes the three kinds of work the workloads do: interpreter
bytecode, small LAPACK calls through numpy, and multiprecision arithmetic
through mpmath.  It touches nothing in spectral_cascade, so a change to the
program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import mpmath as mp
import numpy as np

# Kernel time on an idle 2-core Xeon box; the scale of the normalised values.
REFERENCE_S = 0.0055
# One kernel sample is owed per this much measured time.
INTERVAL_S = 0.1
# Kernel samples taken right before and right after a set-up.
SETUP_SAMPLES = 15

_M = np.arange(25.0).reshape(5, 5) + np.eye(5)


def kernel() -> None:
    s = 0
    for i in range(30_000):
        s += i * i % 7
    for _ in range(100):
        np.linalg.svd(_M, compute_uv=False)
    with mp.workdps(300):
        x = mp.mpf(2)
        for _ in range(200):
            x = mp.sqrt(x + 1)


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def time_scale(samples) -> float:
    """REFERENCE_S over the 10%-trimmed mean of the kernel sample times."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return REFERENCE_S / statistics.fmean(xs[cut:len(xs) - cut])

