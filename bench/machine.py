"""Facts about the machine, recorded next to every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_SC_LEVEL2_CACHE_SIZE = 191  # glibc sysconf names, absent from os.sysconf_names
_SC_LEVEL3_CACHE_SIZE = 194


def _last_level_cache_bytes():
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    for name in (_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE):
        size = libc.sysconf(name)
        if size > 0:
            return size
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "last_level_cache_bytes": _last_level_cache_bytes(),
        "machine": platform.machine(),
    }
