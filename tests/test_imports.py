"""numpy is the only runtime dependency: importing every pointprops module
and building the command-line parser loads no scipy module. The tests take
scipy only as a reference, through ``pytest.importorskip``, so every test
module imports without it."""

import os
import subprocess
import sys
from pathlib import Path

import pointprops

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

TESTS_WITHOUT_SCIPY = """
import importlib, pathlib, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
tests = pathlib.Path(sys.argv[1])
sys.path.insert(0, str(tests))
for path in sorted(tests.glob("test_*.py")):
    importlib.import_module(path.stem)
"""


def run_probe(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_ROOT)] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_module_loads_scipy():
    assert run_probe(PROBE).strip() == "[]"


def test_test_modules_import_without_scipy():
    run_probe(TESTS_WITHOUT_SCIPY, str(Path(__file__).resolve().parent))
