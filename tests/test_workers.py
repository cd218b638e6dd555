import sys
import threading

import pytest

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
        assert threading.active_count() == before + 2
        for job in range(2):
            run(lambda lane, job=job: seen.append((job, lane, threading.get_ident())))
            assert sorted(lane for j, lane, _ in seen if j == job) == [0, 1, 2]
    assert threading.active_count() == before
    # lane 0 is the caller; each other lane keeps its thread from job to job
    idents = {lane: {ident for _, l, ident in seen if l == lane} for lane in range(3)}
    assert idents[0] == {threading.get_ident()}
    assert all(len(idents[lane]) == 1 for lane in (1, 2))
    assert len(set.union(*idents.values())) == 3


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
