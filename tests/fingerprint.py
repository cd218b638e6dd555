"""Print fingerprints of the program's outputs, one line each, to compare two
versions of the code bit for bit.

    PYTHONPATH=src python tests/fingerprint.py > change.txt
    PYTHONPATH=<other checkout>/src python tests/fingerprint.py > parent.txt
    diff parent.txt change.txt

``pointprops`` comes from PYTHONPATH; the inputs (``benchmarks/inputs.py``)
and the fixed eval checkpoint come from this checkout, which is only read.
For seeds 1-3 it prints the train-64 checkpoint sha256 and a hash of its log
rows (40 EM iterations from ``TrainConfig(iterations=40, seed=seed)``, wall
times left out) and a hash of the eval-240x320 rows; then, once, hashes of
the ``oracle-check`` stdout and of every check's deviation at full
precision. A pure refactor leaves every line unchanged. Takes about a
minute; not collected by pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from pointprops import checks, cli, em, model, simulate
from pointprops.config import EvalConfig, PropertyConfig, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "benchmarks" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def train_fingerprint(inputs, seed):
    result = em.train(inputs.shape_scenes(seed, 16), TrainConfig(iterations=40, seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        model.save_checkpoint(path, result.params)
        checkpoint = hashlib.sha256(path.read_bytes()).hexdigest()
    rows = [(row["iteration"], row["E_y_L"], row["mean_num_yhat"], row["skipped_scenes"])
            for row in result.log_rows]
    return checkpoint, _digest(rows)


def eval_fingerprint(inputs, params, seed):
    eval_cfg, rad = EvalConfig(), PropertyConfig().rad
    pairs = inputs.eval_pairs(seed, 8, (240, 320), "illum_mild", "viewpoint_medium",
                              simulate.make_pair)
    rows = [sorted(cli.evaluate_pair(params, img_a, img_b, hom, eval_cfg, rad,
                                     pair_seed=idx)[0].items())
            for idx, (img_a, img_b, hom) in enumerate(pairs)]
    return _digest(rows)


def main() -> int:
    inputs = _load_inputs()
    params = model.load_checkpoint(ROOT / "benchmarks" / "eval_checkpoint" / "model.ckpt")
    for seed in SEEDS:
        checkpoint, log_rows = train_fingerprint(inputs, seed)
        print(f"train-64 seed {seed} checkpoint_sha256 {checkpoint}")
        print(f"train-64 seed {seed} log_rows {log_rows}")
        print(f"eval-240x320 seed {seed} rows {eval_fingerprint(inputs, params, seed)}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["oracle-check"])
    print(f"oracle-check exit {code} stdout {_digest(stdout.getvalue())}")
    deviations = [(res.name, res.deviation) for res in checks.run_all_checks()]
    print(f"oracle-check deviations {_digest(deviations)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
