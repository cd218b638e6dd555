import sys

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
