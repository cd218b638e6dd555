"""The process's parallelism: numpy's OpenBLAS thread count and forked
worker pools.

Worker processes and BLAS threads compete for the same cores: two
processes that each start BLAS threads run several times slower than two
that each run one. So every pool here is created, and its caller runs,
with numpy's OpenBLAS pinned to one thread where the loaded BLAS allows
it, and the workers inherit that count.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

# numpy's extension module, which links its BLAS: numpy 2, then numpy 1.x
_NUMPY_CORE = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")
# the bundled OpenBLAS's (get, set) thread-count functions, 64-bit interface:
# numpy 2 wheels, then numpy 1.x wheels
_BLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _blas_thread_functions():
    """numpy's OpenBLAS (get, set) thread-count functions, or None when
    numpy's extension module cannot be imported or loaded or exports none
    of them (a numpy built against MKL, Accelerate or a system BLAS)."""
    import ctypes  # only a pool or a pin needs it

    for module in _NUMPY_CORE:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            break
        except (ImportError, OSError):
            continue
    else:
        return None
    for names in _BLAS_THREADS:
        try:
            get, set_ = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread for the ``with`` block and restore
    the previous count on exit, also when the block raises. Yields whether
    the pin took: False when the BLAS's thread functions cannot be found,
    in which case nothing is changed."""
    functions = _blas_thread_functions()
    if functions is None:
        yield False
        return
    get, set_ = functions
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)


@contextmanager
def fork_pool(n: int):
    """A ``fork`` ProcessPoolExecutor of ``n`` workers, or None to run
    serially in this process.

    Fork, not spawn: workers inherit the caller's modules as they are,
    monkeypatches included, and skip re-importing numpy and the program.
    The pool is created and used inside ``one_blas_thread``, so its workers
    run one BLAS thread each where the pin takes; where it does not, the
    pool is made all the same and the BLAS keeps its count. None when
    ``n < 1``, when this process is a daemonic worker (which may not have
    children), or when other threads are running (fork copies only the
    calling thread, so a lock another thread holds would stay held in the
    worker). The pool is shut down and its workers joined when the block
    exits, also when it raises.
    """
    if n < 1 or multiprocessing.current_process().daemon or threading.active_count() > 1:
        yield None
        return
    with one_blas_thread():
        pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"))
        try:
            yield pool
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
