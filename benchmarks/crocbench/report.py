"""Summary statistics and the machine note printed with every run."""

from __future__ import annotations

import importlib.metadata
import os
import platform
import statistics
import time

import numpy as np

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, beyond)`` at the highest percentile with >= 10 samples beyond it.

    With n sorted samples, the value at rank ``n - 10`` has exactly ten
    samples above it; its percentile is ``100 * (n - 10) / n``.  With ten
    or fewer samples no percentile qualifies and the maximum is returned
    with ``beyond = 0``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def reference_kernel_ms() -> float:
    """Median time of a fixed numpy kernel: sines and a 4-neighbour stencil sum on 256^2 arrays.

    It writes into preallocated arrays, so the allocator's state does not
    enter the timing.  Timed at the start and the end of a run, it shows how
    fast the host was while the run measured, independently of croccolab.
    """
    a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    b = np.empty_like(a)
    c = np.zeros_like(a)
    times = []
    for _ in range(8):
        t0 = time.perf_counter()
        for _ in range(20):
            np.sin(a, out=b)
            np.add(b[2:, 1:-1], b[:-2, 1:-1], out=c[1:-1, 1:-1])
            c[1:-1, 1:-1] += b[1:-1, 2:]
            c[1:-1, 1:-1] += b[1:-1, :-2]
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:]) * 1e3  # the first repeat warms the caches


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def machine_note(threads: dict[str, str]) -> list[str]:
    pools = " ".join(f"{k}={v}" for k, v in threads.items())
    return [
        f"machine: nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} cpu={_cpu_model()!r}",
        f"machine: python={platform.python_version()} numpy={np.__version__} scipy={_version('scipy')}",
        f"machine: threads {pools}",
    ]
