import ctypes
import sys
import threading

import pytest

from pointprops import workers


@pytest.fixture(autouse=True)
def fresh_lookup():
    """Each test looks numpy's BLAS thread functions up under its own
    patches, and leaves no lookup made under them cached."""
    workers._blas_thread_functions.cache_clear()
    yield
    workers._blas_thread_functions.cache_clear()


def test_missing_numpy_core_module_cannot_pin(monkeypatch):
    for module in workers._NUMPY_CORE:
        monkeypatch.setitem(sys.modules, module, None)  # importing it now raises
    assert workers._blas_thread_functions() is None
    with workers.one_blas_thread() as pinned:
        assert pinned is False


def test_blas_without_thread_functions_cannot_pin(monkeypatch):
    monkeypatch.setattr(workers, "_BLAS_THREADS", (("no_get_threads", "no_set_threads"),))
    assert workers._blas_thread_functions() is None


def test_later_names_are_tried(monkeypatch):
    names = workers._BLAS_THREADS
    monkeypatch.setattr(workers, "_BLAS_THREADS",
                        (("no_get_threads", "no_set_threads"),) + names)
    functions = workers._blas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread functions")
    get, set_ = functions
    before = get()
    with workers.one_blas_thread() as pinned:
        assert pinned is True
        assert get() == 1
    assert get() == before


def test_pin_held_by_two_threads_lasts_until_both_exit():
    functions = workers._blas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread functions")
    get, set_ = functions
    before = get()
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def first():
        with workers.one_blas_thread():
            first_in.set()
            second_in.wait(10)
            seen.append(get())
        first_out.set()

    def second():
        first_in.wait(10)
        with workers.one_blas_thread():
            second_in.set()
            first_out.wait(10)
            seen.append(get())  # the first thread has exited; this one still holds the pin

    try:
        set_(2)
        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1, 1]


def test_thread_functions_are_looked_up_once(monkeypatch):
    loads = []
    cdll = ctypes.CDLL

    def counting(*args, **kwargs):
        loads.append(args[0])
        return cdll(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counting)
    with workers.one_blas_thread():
        pass
    first = len(loads)
    assert first >= 1
    with workers.one_blas_thread():
        pass
    assert len(loads) == first


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
