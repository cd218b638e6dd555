"""Make the benchmark modules and the program source importable."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import env  # noqa: E402

env.use_program_source()
