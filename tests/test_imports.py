"""numpy is the only runtime dependency: importing every pointprops module
and building the command-line parser loads no scipy module. The tests take
scipy only as a reference, through ``pytest.importorskip``, so every test
module imports without it.

Importing pointprops sets numpy's OpenBLAS to one thread for the whole
process, whatever ``OPENBLAS_NUM_THREADS`` says, and no call sets it back;
with numpy's extension module out of reach nothing is pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointprops
from pointprops import workers

SRC_ROOT = Path(pointprops.__file__).resolve().parent.parent

PROBE = """
import importlib, pkgutil, sys
import pointprops
for info in pkgutil.iter_modules(pointprops.__path__):
    importlib.import_module("pointprops." + info.name)
from pointprops import cli
cli.build_parser()
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

PIN = """
import numpy as np
from pointprops import PointPropsDetector, cli, em, model, workers
from pointprops.config import EvalConfig, TrainConfig
get, _ = workers._blas_thread_functions()
counts = [workers.BLAS_PINNED, get()]
img = np.random.default_rng(0).random((32, 32))
em.train([img, img], TrainConfig(iterations=1, transforms_per_scene=2, descriptor_dim=4))
counts.append(get())
cli.evaluate_pair(model.init_params(0, 4), img, img, np.eye(3), EvalConfig(), 2)
counts.append(get())
detector = PointPropsDetector(descriptor_dim=4)
detector.params_ = model.init_params(0, 4)
detector.detect(np.random.default_rng(1).random((240, 320)))
counts.append(get())
print(counts)
"""

UNPINNABLE = """
import sys
import numpy
for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
    sys.modules[name] = None  # importing it now raises ImportError
from pointprops import workers
print(workers.BLAS_PINNED)
"""

TESTS_WITHOUT_SCIPY = """
import importlib, pathlib, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
tests = pathlib.Path(sys.argv[1])
sys.path.insert(0, str(tests))
for path in sorted(tests.glob("test_*.py")):
    importlib.import_module(path.stem)
"""


def run_probe(*args, **environ):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_ROOT)] + ([path] if path else [])),
               **environ)
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_module_loads_scipy():
    assert run_probe(PROBE).strip() == "[]"


def test_test_modules_import_without_scipy():
    run_probe(TESTS_WITHOUT_SCIPY, str(Path(__file__).resolve().parent))


def test_importing_sets_one_blas_thread_for_the_whole_process():
    if workers._blas_thread_functions() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread functions")
    assert run_probe(PIN, OPENBLAS_NUM_THREADS="2").strip() == "[True, 1, 1, 1, 1]"


def test_blas_without_numpy_core_module_is_not_pinned():
    assert run_probe(UNPINNABLE).strip() == "False"
