import sys
import threading

import pytest

from pointprops import workers


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
