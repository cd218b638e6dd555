"""Process set-up shared by the benchmark entry points.

Import this before numpy: OpenBLAS reads its thread count once, when the
library loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def pin_blas_threads() -> int:
    """Pin every BLAS pool to min(2, nproc) threads; returns the count."""
    threads = min(MAX_BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def use_program_source():
    """Import ``pointprops`` from the checkout's ``src`` directory."""
    if not (SRC_DIR / "pointprops" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source not found under {SRC_DIR.name}/")
    sys.path.insert(0, str(SRC_DIR))
