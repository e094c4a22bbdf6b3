"""Benchmark harness for croccolab: seeded workloads, output checks and layer tracing.

The harness imports croccolab from the ``src/`` directory of the checkout
it lives in, never from an installed copy, so a run always measures the
source tree next to it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def clamp_thread_env() -> dict[str, str]:
    """Keep every native thread pool at or below the usable cores.

    Unset pools get one thread: the workloads drive one client in one
    process, and extra pool threads only add noise on a small shared host.
    Must run before numpy is imported.  Returns the settings in force.
    """
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        n = int(raw) if raw.isdigit() else 1
        os.environ[var] = str(min(max(n, 1), cores))
    return {var: os.environ[var] for var in THREAD_VARS}


class SourceMissingError(RuntimeError):
    """The checkout holds no croccolab sources to benchmark."""


def use_checkout_source():
    """Import croccolab from ``<checkout>/src`` and return the package."""
    if not (SOURCE / "croccolab" / "__init__.py").is_file():
        raise SourceMissingError(f"no croccolab package under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import croccolab

    if Path(croccolab.__file__).resolve().parent != SOURCE / "croccolab":
        raise SourceMissingError(f"croccolab was imported from {croccolab.__file__}, not {SOURCE}")
    return croccolab


@contextlib.contextmanager
def work_dir(label: str):
    """A fresh directory under ``<checkout>/.bench_work``, removed with its contents on exit."""
    parent = ROOT / ".bench_work"
    path = parent / f"{label}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # only succeeds when no other run is using it
