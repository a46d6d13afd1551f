"""The thread count of the OpenBLAS behind ``scipy.linalg``.

The static factor and the Mindlin oracle both run LAPACK's banded Cholesky
on one BLAS thread (``_one_blas_thread``).  OpenBLAS is reached through
ctypes; for any other BLAS the pin is a no-op.
"""

from __future__ import annotations

import contextlib
import ctypes

import scipy.linalg as sla


def _blas_threads():
    """The getter and setter of the thread count of the OpenBLAS that
    ``scipy.linalg`` calls, looked up among the libraries its LAPACK
    module links (scipy's wheels prefix the names with ``scipy_``); None
    for any other BLAS."""
    try:
        lib = ctypes.CDLL(sla._flapack.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        try:
            return (getattr(lib, prefix + "_get_num_threads"),
                    getattr(lib, prefix + "_set_num_threads"))
        except AttributeError:
            pass
    return None


_BLAS_THREADS = _blas_threads()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the thread count.

    On a 2-vCPU VM a two-thread band Cholesky gains nothing, and the first
    one in a process is now and then five times slower: a 65^2 flexural
    factor took 1.03 s in one of six fresh processes, against 0.15-0.22 s
    on one thread.  One thread also keeps the factor's rounding, and so
    the printed residuals, the same on every host."""
    if _BLAS_THREADS is None:
        yield
        return
    get, set_ = _BLAS_THREADS
    n = get()
    set_(1)
    try:
        yield
    finally:
        set_(n)
