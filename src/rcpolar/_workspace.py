"""Reused arrays for hot-path temporaries that never leave the call.

A HARQ cycle allocates the same large temporaries again and again: the
channel's normal draws, the fold's bins and the decoder's LLRs of every node
width.  Freed, their pages go back to the system and the next call faults
them in again.  ``workspace`` hands out one kept array per key instead, so
a cycle touches the same pages every time.  Arrays are kept per thread, and
all of one thread's arrays together hold at most ``KEEP_BYTES``; a request
past that gets a fresh array.
"""

from __future__ import annotations

import math
import threading

import numpy as np

KEEP_BYTES = 64 << 20
_local = threading.local()


def workspace(key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's uninitialized array under ``key``, of ``shape`` and
    ``dtype``; every request under one key names the same dtype.  The next
    request under ``key`` returns the same memory, so the array must not
    outlive the caller's use of it."""
    try:
        kept = _local.kept
    except AttributeError:
        kept = _local.kept = {}
    size = math.prod(shape)
    buf = kept.get(key)
    if buf is None or buf.size < size:
        held = sum(b.nbytes for b in kept.values()) - (0 if buf is None else buf.nbytes)
        if held + size * np.dtype(dtype).itemsize > KEEP_BYTES:
            return np.empty(shape, dtype)
        buf = kept[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)
