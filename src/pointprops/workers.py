"""The process's parallelism: numpy's OpenBLAS thread count, how many jobs
run at once, forked worker pools and the lanes of one call.

Worker processes and BLAS threads compete for the same cores: two
processes that each start BLAS threads run several times slower than two
that each run one. So importing this module sets numpy's OpenBLAS to one
thread for the whole process, once, where the loaded BLAS allows it
(``BLAS_PINNED``); forked workers inherit that count. ``parallelism`` is
the one decision of how many jobs run at once, for training's scene pool,
the check battery, eval's pair threads and a forward's lanes alike.
"""

from __future__ import annotations

import ctypes
import importlib
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
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
    """The number of CPUs this process may run on: its affinity where the
    platform reports one (not on macOS or Windows), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_thread_functions():
    """numpy's OpenBLAS (get, set) thread-count functions, or None when
    numpy's extension module cannot be imported or loaded or exports none
    of them (a numpy built against MKL, Accelerate or a system BLAS)."""
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


def _pin_blas() -> bool:
    """Set numpy's OpenBLAS to one thread; whether its thread functions
    were found (nothing is changed where they were not)."""
    functions = _blas_thread_functions()
    if functions is None:
        return False
    functions[1](1)
    return True


# whether numpy's OpenBLAS runs one thread, set here once for the whole
# process: every pool, lane and pair of the program relies on it
BLAS_PINNED = _pin_blas()


def parallelism(n: int) -> int:
    """How many of ``n`` independent jobs run at once: one per usable CPU,
    at most ``n``, counted afresh on each call.

    1 where more would compete for the cores or is unsafe: when numpy's
    BLAS could not be pinned (jobs beside BLAS threads run slower than
    serial), when this process is a daemonic worker (which may not have
    children), or when other threads are running (they already use the
    cores, and fork copies only the calling thread, so a lock another
    thread holds would stay held in a forked worker).
    """
    if (not BLAS_PINNED or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    return min(n, usable_cpus())


@contextmanager
def fork_pool(n: int):
    """A ``fork`` ProcessPoolExecutor of ``n`` workers, or None to run
    serially in this process: when ``n < 1`` or the platform cannot fork.

    Fork, not spawn: workers inherit the caller's modules as they are,
    monkeypatches included, and its BLAS thread count (one where
    ``BLAS_PINNED``), and skip re-importing numpy and the program. Callers
    size ``n`` with ``parallelism``, which is 1 wherever forking is unsafe.
    The pool is shut down and its workers joined when the block exits, also
    when it raises.
    """
    if n < 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def serial(job) -> None:
    """The ``run`` of one lane (``lanes``): ``job(0)`` in the calling thread."""
    job(0)


@contextmanager
def lanes(n: int):
    """Yields ``run``: ``run(job)`` calls ``job(lane)`` for every lane in
    ``range(n)`` at once and returns when all have returned, raising the
    error of a lane that raised. Lane 0 runs in the calling thread and the
    others in a pool of at most ``n - 1`` threads, joined when the block
    exits, also when it raises. With ``n <= 1`` no thread is started and
    ``run(job)`` is ``job(0)``. The caller sizes ``n`` with
    ``parallelism``.
    """
    if n <= 1:
        yield serial
        return

    def run(job):
        futures = [pool.submit(job, lane) for lane in range(1, n)]
        try:
            job(0)
        finally:
            wait(futures)
        for future in futures:
            future.result()

    with ThreadPoolExecutor(n - 1) as pool:
        yield run
