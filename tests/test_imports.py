"""numpy is the only runtime dependency: importing every pointprops module
and building the command-line parser loads no scipy module."""

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


def test_no_module_loads_scipy():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_ROOT)] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
