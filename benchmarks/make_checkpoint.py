"""Train the fixed checkpoint the eval-240x320 workload scores.

    python3 benchmarks/make_checkpoint.py

Trains the default TrainConfig (B=2 scenes x J=10 views, 64x64, d=16) from
scratch for ITERATIONS EM iterations on CKPT_SCENES seeded shape scenes, and
writes eval_checkpoint/model.ckpt beside this file. The eval workload checks
the file's sha256 at set-up, so a change to training never moves the eval
numbers; rerunning this script is only needed to replace the checkpoint on
purpose (then update EVAL_CKPT_SHA256 in workloads.py).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402  (pins BLAS threads before numpy loads)

env.pin_blas_threads()
env.use_program_source()

import inputs  # noqa: E402
from pointprops import em, model  # noqa: E402
from pointprops.config import TrainConfig  # noqa: E402

SCENE_SEED = 20190726
CKPT_SCENES = 64
ITERATIONS = 200
TRAIN_SEED = 0
CKPT_PATH = Path(__file__).resolve().parent / "eval_checkpoint" / "model.ckpt"


def main() -> int:
    images = inputs.shape_scenes(SCENE_SEED, CKPT_SCENES)
    result = em.train(images, TrainConfig(iterations=ITERATIONS, seed=TRAIN_SEED))
    CKPT_PATH.parent.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(CKPT_PATH, result.params)
    digest = hashlib.sha256(CKPT_PATH.read_bytes()).hexdigest()
    seconds = sum(row["seconds"] for row in result.log_rows)
    print(f"wrote {CKPT_PATH.name}: {ITERATIONS} iterations in {seconds:.1f} s, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
