"""Print fingerprints of the program's outputs, one line each, to compare two
versions of the code bit for bit.

    PYTHONPATH=src python tests/fingerprint.py > change.txt
    PYTHONPATH=<other checkout>/src python tests/fingerprint.py > parent.txt
    diff parent.txt change.txt

``pointprops`` comes from PYTHONPATH; the inputs (``benchmarks/inputs.py``)
and the fixed eval checkpoint come from this checkout, which is only read.
For seeds 1-3 it prints the train-64 checkpoint sha256 and a hash of its log
rows (40 EM iterations from ``TrainConfig(iterations=40, seed=seed)``, wall
times left out), a hash of the eval-240x320 rows from ``cli.evaluate_pair``
(which runs under the one BLAS thread that importing ``pointprops`` sets, so
a version that did not pin gives the same line only under
``OPENBLAS_NUM_THREADS=1``), and
a hash of the metrics.csv that ``pointprops eval --pairs`` writes for the
same 8 pairs, written as PNGs plus a pair list (so the command's pair pool,
BLAS pin, aggregation and CSV format are covered too); for seed 1 also a
hash of each point count and the xy and descriptor bytes that
``PointPropsDetector.detect`` finds on the 8 B images read back from those
PNGs, with the same checkpoint; then, once, hashes of
the ``oracle-check`` stdout and of every check's deviation at full
precision, a hash of the ``build_run_config`` result with no preset and
with each preset, and the checkpoint sha256 of a ``PointPropsDetector``
fitted on 16x16 scenes for 2 iterations with every training
hyperparameter off its default. A pure refactor leaves every line unchanged. Takes about a minute; not
collected by pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from pointprops import PointPropsDetector, checks, cli, em, image_io, model, simulate
from pointprops.config import (PRESETS, EvalConfig, PropertyConfig, TrainConfig,
                               build_run_config)

ROOT = Path(__file__).resolve().parents[1]
CHECKPOINT = ROOT / "benchmarks" / "eval_checkpoint" / "model.ckpt"
SEEDS = (1, 2, 3)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "benchmarks" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _checkpoint_sha256(params) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        model.save_checkpoint(path, params)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def train_fingerprint(inputs, seed):
    result = em.train(inputs.shape_scenes(seed, 16), TrainConfig(iterations=40, seed=seed))
    checkpoint = _checkpoint_sha256(result.params)
    rows = [(row["iteration"], row["E_y_L"], row["mean_num_yhat"], row["skipped_scenes"])
            for row in result.log_rows]
    return checkpoint, _digest(rows)


def eval_pairs(inputs, seed):
    return inputs.eval_pairs(seed, 8, (240, 320), "illum_mild", "viewpoint_medium",
                             simulate.make_pair)


def eval_fingerprint(params, pairs):
    eval_cfg, rad = EvalConfig(), PropertyConfig().rad
    rows = [sorted(cli.evaluate_pair(params, img_a, img_b, hom, eval_cfg, rad,
                                     pair_seed=idx)[0].items())
            for idx, (img_a, img_b, hom) in enumerate(pairs)]
    return _digest(rows)


def write_pair_list(root, pairs):
    """Each pair as PNGs a<idx>.png and b<idx>.png in ``root``, listed in pairs.txt."""
    lines = []
    for idx, (img_a, img_b, hom) in enumerate(pairs):
        image_io.write_png(root / f"a{idx}.png", img_a)
        image_io.write_png(root / f"b{idx}.png", img_b)
        hom_text = " ".join(map(repr, hom.ravel().tolist()))  # repr round-trips
        lines.append(f"a{idx}.png b{idx}.png {hom_text}")
    (root / "pairs.txt").write_text("\n".join(lines) + "\n")


def eval_command_fingerprint(root):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", "--pairs", str(root / "pairs.txt"),
                         "--checkpoint", str(CHECKPOINT), "--output", str(root / "out")])
    return code, hashlib.sha256((root / "out" / "metrics.csv").read_bytes()).hexdigest()


def detect_fingerprint(root, count):
    det = PointPropsDetector().load_checkpoint(CHECKPOINT)
    points = [det.detect(image_io.read_image(root / f"b{idx}.png")) for idx in range(count)]
    return _digest([(len(p), p.xy.tobytes(), p.descriptors.tobytes()) for p in points])


def config_fingerprint():
    return _digest([repr(build_run_config({}, preset)) for preset in (None, *PRESETS)])


def detector_fingerprint(inputs):
    # every training hyperparameter off its default: one that fit leaves out
    # of its TrainConfig changes the checkpoint
    det = PointPropsDetector(
        descriptor_dim=4, rad=2, n_min=1, n_max=7, m_p=0.9, m_n=0.1, neg_weight=0.3,
        alpha=1.5, batch_scenes=1, transforms_per_scene=3, iterations=2,
        learning_rate=2e-3, illumination="illum_full", viewpoint="viewpoint_full", seed=5,
    )
    det.fit(inputs.shape_scenes(4, 3, shape=(16, 16)))
    return _checkpoint_sha256(det.params_)


def main() -> int:
    inputs = _load_inputs()
    params = model.load_checkpoint(CHECKPOINT)
    for seed in SEEDS:
        checkpoint, log_rows = train_fingerprint(inputs, seed)
        print(f"train-64 seed {seed} checkpoint_sha256 {checkpoint}")
        print(f"train-64 seed {seed} log_rows {log_rows}")
        pairs = eval_pairs(inputs, seed)
        print(f"eval-240x320 seed {seed} rows {eval_fingerprint(params, pairs)}")
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_pair_list(root, pairs)
            code, metrics = eval_command_fingerprint(root)
            print(f"eval-240x320 seed {seed} eval --pairs exit {code} metrics_csv {metrics}")
            if seed == 1:
                print(f"detect seed {seed} points {detect_fingerprint(root, len(pairs))}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["oracle-check"])
    print(f"oracle-check exit {code} stdout {_digest(stdout.getvalue())}")
    deviations = [(res.name, res.deviation) for res in checks.run_all_checks()]
    print(f"oracle-check deviations {_digest(deviations)}")
    print(f"config presets {config_fingerprint()}")
    print(f"detector fit checkpoint_sha256 {detector_fingerprint(inputs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
