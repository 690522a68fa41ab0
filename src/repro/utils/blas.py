"""Thread control of the OpenBLAS that NumPy loads.

A fork-started worker process inherits a spin-waiting BLAS thread pool
sized to every core, so N workers each running that pool oversubscribe
the machine (measured for DSE: 4 workers ran at half the speed of one).
:func:`cap_blas_threads` gives each worker its share of the cores.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

__all__ = ["blas_threads_fn", "cap_blas_threads"]

#: Thread-count entry points of the OpenBLAS builds NumPy wheels bundle
#: (scipy-openblas, 64-bit integers) or link (plain OpenBLAS); ``{}`` is
#: ``set`` or ``get``.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                        "scipy_openblas_{}_num_threads",
                        "openblas_{}_num_threads64_",
                        "openblas_{}_num_threads")


def blas_threads_fn(verb: str):
    """The loaded OpenBLAS's ``<verb>_num_threads`` function, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for pattern in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, pattern.format(verb), None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int] if verb == "set" else []
                fn.restype = None if verb == "set" else ctypes.c_int
                return fn
    return None


def cap_blas_threads(workers: int) -> None:
    """Cap this process's BLAS pool at its share of the cores when
    ``workers`` processes share the machine (no-op without OpenBLAS)."""
    set_threads = blas_threads_fn("set")
    if set_threads is not None:
        set_threads(max(1, (os.cpu_count() or 1) // workers))
