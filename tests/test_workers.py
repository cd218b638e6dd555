import multiprocessing
import os
import sys
import threading

import pytest

from conftest import use_cpus
from pointprops import workers


def test_missing_numpy_core_module_cannot_pin(monkeypatch):
    for module in workers._NUMPY_CORE:
        monkeypatch.setitem(sys.modules, module, None)  # importing it now raises
    assert workers._blas_thread_functions() is None
    assert workers._pin_blas() is False


def test_blas_without_thread_functions_cannot_pin(monkeypatch):
    monkeypatch.setattr(workers, "_BLAS_THREADS", (("no_get_threads", "no_set_threads"),))
    assert workers._blas_thread_functions() is None
    assert workers._pin_blas() is False


def test_later_names_are_tried(monkeypatch):
    names = workers._BLAS_THREADS
    monkeypatch.setattr(workers, "_BLAS_THREADS",
                        (("no_get_threads", "no_set_threads"),) + names)
    functions = workers._blas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread functions")
    get, set_ = functions
    try:
        set_(2)
        assert workers._pin_blas() is True
        assert get() == 1
    finally:
        set_(1)


def blas_threads():
    """This process's OpenBLAS thread count."""
    return workers._blas_thread_functions()[0]()


def test_forked_workers_run_one_blas_thread():
    if not workers.BLAS_PINNED:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread functions")
    with workers.fork_pool(1) as pool:
        assert pool.submit(blas_threads).result(timeout=60) == 1


def test_lanes_run_each_job_on_every_lane_and_join():
    before = threading.active_count()
    seen = []
    with workers.lanes(3) as run:
        for job in range(2):
            run(lambda lane, job=job: seen.append((job, lane, threading.get_ident())))
            assert sorted(lane for j, lane, _ in seen if j == job) == [0, 1, 2]
            assert threading.active_count() <= before + 2
    assert threading.active_count() == before
    idents = {lane: {ident for _, l, ident in seen if l == lane} for lane in range(3)}
    assert idents[0] == {threading.get_ident()}  # lane 0 is the caller
    assert threading.get_ident() not in idents[1] | idents[2]


def test_one_lane_starts_no_thread():
    seen = []
    before = threading.active_count()
    with workers.lanes(1) as run:
        run(seen.append)
        assert threading.active_count() == before
    assert seen == [0]


@pytest.mark.parametrize("failing", [0, 1])
def test_a_lane_error_reaches_the_caller_after_every_lane_returns(failing):
    before = threading.active_count()
    finished = []

    def job(lane):
        if lane == failing:
            raise ArithmeticError(f"lane {lane}")
        finished.append(lane)

    with pytest.raises(ArithmeticError, match=f"lane {failing}"):
        with workers.lanes(2) as run:
            run(job)
    assert finished == [1 - failing]
    assert threading.active_count() == before


@pytest.mark.parametrize("case, n, expected", [
    ("two cpus", 5, 2), ("fewer jobs than cpus", 1, 1), ("one cpu", 5, 1),
    ("unpinned blas", 5, 1), ("daemonic process", 5, 1), ("other thread", 5, 1),
])
def test_parallelism(monkeypatch, case, n, expected):
    monkeypatch.setattr(workers, "BLAS_PINNED", True)
    use_cpus(monkeypatch, 1 if case == "one cpu" else 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if case == "unpinned blas":
        monkeypatch.setattr(workers, "BLAS_PINNED", False)
    elif case == "daemonic process":
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    elif case == "other thread":
        waiter.start()
    try:
        assert workers.parallelism(n) == expected
    finally:
        release.set()
    if waiter.ident is not None:
        waiter.join(timeout=5)
        assert not waiter.is_alive()


def test_usable_cpus_without_an_affinity_counts_every_cpu(monkeypatch):
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert workers.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert workers.usable_cpus() == 1


def test_no_fork_pool_where_the_platform_cannot_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with workers.fork_pool(2) as pool:
        assert pool is None
    assert multiprocessing.active_children() == []
