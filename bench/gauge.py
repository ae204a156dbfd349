"""Host-speed gauges: scale measured times to a host of fixed speed.

The shared host this benchmark was built on changes speed by a fifth or
more over minutes, for every process alike, which would swamp the
run-to-run differences the benchmark exists to show.  A gauge times a
fixed kernel between requests, outside the timed intervals, and scales
each interval by ``reference / mean(kernel before, kernel after)``.  The
kernel must drift like the work it gauges: library requests use a
pure-Python loop, CLI requests a bare interpreter start.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Callable

#: Typical kernel times on the host the DESIGN.md baseline was taken on;
#: reported times are on the scale of that host.
PYTHON_KERNEL_S = 0.0075
INTERPRETER_START_S = 0.080


def python_kernel() -> float:
    """Run time of fixed interpreter arithmetic and string comparison."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    labels = tuple(f"c{i:03d}" for i in range(300))
    for label in labels[::7]:
        labels.index(label)
    return time.perf_counter() - start


def interpreter_start() -> float:
    """Run time of a bare ``python -c pass`` process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=120)
    return time.perf_counter() - start


class HostGauge:
    """Scales each measured interval by the kernel's mean time just before
    and just after it."""

    def __init__(self, kernel: Callable[[], float], reference_s: float):
        self._kernel = kernel
        self._reference_s = reference_s
        self._last = kernel()

    def scale(self, seconds: float) -> float:
        now = self._kernel()
        factor = self._reference_s / ((self._last + now) / 2)
        self._last = now
        return seconds * factor
