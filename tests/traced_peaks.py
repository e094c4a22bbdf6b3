"""The traced allocation peak of one call, for the tests that bound a working set."""

import tracemalloc


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of ``fn(*args)``, as ``tracemalloc`` counts them from the call's start."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
