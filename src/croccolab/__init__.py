"""Vorticity-relation diagnostics for capillary and general complex fluids."""

import ctypes
import os

# glibc starts out serving each block of 128 KiB or more by its own mmap, unmapped when freed,
# and trimming the heap top past 128 KiB of free memory; it raises the two thresholds (up to
# 32 MiB and twice that) only after the process frees a block that large.  A 256^2 probe level
# builds tens of MB of smaller grid temporaries and frees them, so every level faulted them
# back in.  32 MiB is the largest mmap threshold glibc accepts on 64-bit; up to TRIM_THRESHOLD
# of freed heap stays resident.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Set glibc's mmap and trim thresholds once; a no-op on any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    except (ValueError, OSError, AttributeError):
        pass


_keep_freed_heap()

from . import crocco, fieldcalc, fieldio, manufactured, models, smectic, transport  # noqa: E402

__all__ = ["crocco", "fieldcalc", "fieldio", "manufactured", "models", "smectic", "transport"]
__version__ = "0.1.0"
