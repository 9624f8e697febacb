"""Reference kernel: fixed work whose wall time gauges how fast the host
runs this process at the moment.

On a shared host the speed of one core drifts with other tenants' load,
by up to 1.7x over minutes, while steal time stays near zero. Over ten
25 s runs per workload that drift spread raw throughput by 0.12 to 0.33
(quartile distance over median); dividing each op's wall time by the
kernel's time measured just before it brought the same runs to 0.03 to
0.14.

The kernel has a pure-Python part (dict counting and sorting, like
tokenize/encode and the n-gram metrics) and a small-numpy part (16-wide
matrix products, softmax rows and scatter-adds, like the objective and
decoding); its time is the geometric mean of the two. It never calls
the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# about the kernel's time on a 2-core x86-64 Xeon host (Python 3.11.7,
# numpy 2.4.6) while its other tenants are quiet; a normalized second is
# a second at that speed
NOMINAL_S = 0.005
SAMPLES = 3

_WORDS = [f"w{i % 97}" for i in range(2000)]
_A = np.random.default_rng(0).standard_normal((64, 16))


def _python_part() -> None:
    for _ in range(20):
        counts: dict[str, int] = {}
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + 1
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _numpy_part() -> None:
    out = np.zeros((100, 16))
    for _ in range(300):
        s = _A @ _A.T
        np.exp(s - s.max(axis=1, keepdims=True)).sum(axis=1)
        np.add.at(out, [1, 2, 3], _A[:3])


def measure() -> float:
    """Median over SAMPLES runs of the kernel's time, in seconds.

    The collector is paused, so the size of the package's heap cannot
    move the kernel."""
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            _python_part()
            t1 = time.perf_counter()
            _numpy_part()
            t2 = time.perf_counter()
            samples.append(math.sqrt((t1 - t0) * (t2 - t1)))
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def normalize(seconds: float, ref_s: float) -> float:
    """Wall seconds measured beside a kernel time of ``ref_s``, as
    seconds at the nominal host speed."""
    return seconds * NOMINAL_S / ref_s
