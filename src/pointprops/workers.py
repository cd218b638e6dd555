"""The process's parallelism: numpy's OpenBLAS thread count, forked
worker pools and the lanes of one call.

Worker processes and BLAS threads compete for the same cores: two
processes that each start BLAS threads run several times slower than two
that each run one. So importing this module sets numpy's OpenBLAS to one
thread for the whole process, once, where the loaded BLAS allows it
(``BLAS_PINNED``); forked workers inherit that count. Lanes are the same
rule inside one call: threads that each run one BLAS thread on their share
of the rows.
"""

from __future__ import annotations

import ctypes
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


@contextmanager
def fork_pool(n: int):
    """A ``fork`` ProcessPoolExecutor of ``n`` workers, or None to run
    serially in this process.

    Fork, not spawn: workers inherit the caller's modules as they are,
    monkeypatches included, and its BLAS thread count (one where
    ``BLAS_PINNED``), and skip re-importing numpy and the program. None
    when ``n < 1``, when this process is a daemonic worker (which may not
    have children), or when other threads are running (fork copies only
    the calling thread, so a lock another thread holds would stay held in
    the worker). The pool is shut down and its workers joined when the
    block exits, also when it raises.
    """
    if n < 1 or multiprocessing.current_process().daemon or threading.active_count() > 1:
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
    others in ``n - 1`` threads started on entry, which wait between jobs
    and are joined when the block exits, also when it raises. With
    ``n <= 1`` no thread is started and ``run(job)`` is ``job(0)``.

    The caller decides whether lanes may run: they share the cores with
    everything else, so they belong where the calling thread is the only
    one and ``BLAS_PINNED``.
    """
    if n <= 1:
        yield serial
        return
    start, done = threading.Barrier(n), threading.Barrier(n)
    jobs, errors = [None], []

    def serve(lane):
        try:
            while True:
                start.wait()
                try:
                    jobs[0](lane)
                except BaseException as exc:  # re-raised by run in the caller
                    errors.append(exc)
                done.wait()
        except threading.BrokenBarrierError:  # the block has exited
            return

    def run(job):
        jobs[0] = job
        start.wait()
        try:
            job(0)
        finally:
            done.wait()
        if errors:
            raise errors.pop()

    threads = [threading.Thread(target=serve, args=(lane,), daemon=True)
               for lane in range(1, n)]
    for thread in threads:
        thread.start()
    try:
        yield run
    finally:
        start.abort()
        done.abort()
        for thread in threads:
            thread.join()
