"""Command-line interface: train, eval, oracle-check, visualize.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 oracle-check
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import checks, em, evaluate, image_io, model, simulate, workers
from .config import PRESETS, RunConfig, build_run_config, parse_config_text

USAGE_ERROR = 1
RUNTIME_ERROR = 2
CHECK_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> _Parser:
    parser = _Parser(prog="pointprops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def config_flags(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--output", help="override the output directory")

    def simulation_flags(p):
        p.add_argument("--seed", type=int, help="override the training seed")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named training regime")

    p_train = sub.add_parser("train", help="train a detector/descriptor checkpoint")
    config_flags(p_train)
    simulation_flags(p_train)
    p_train.add_argument("--images", help="directory of training scene images")

    p_eval = sub.add_parser("eval", help="matching-score / homography metrics")
    config_flags(p_eval)
    simulation_flags(p_eval)
    p_eval.add_argument("--checkpoint", help="trained checkpoint file")
    p_eval.add_argument("--images", help="directory of images to self-pair")
    p_eval.add_argument("--pairs", help="pair list file: imgA imgB h11..h33")
    p_eval.add_argument("--save-visuals", action="store_true",
                        help="also write per-pair match composites")

    p_oracle = sub.add_parser("oracle-check", help="run the validation suite")
    p_oracle.add_argument("--json", action="store_true",
                          help="print the results as one JSON list")

    p_vis = sub.add_parser("visualize", help="render matches for one image pair")
    config_flags(p_vis)
    p_vis.add_argument("image_a")
    p_vis.add_argument("image_b")
    p_vis.add_argument("--checkpoint", help="trained checkpoint file")
    p_vis.add_argument("--homography", nargs=9, type=float, metavar="H",
                       help="ground-truth homography, row major (default identity)")
    return parser


# the config key each command-line override sets
_FLAG_KEYS = {
    "seed": "train.seed",
    "images": "paths.images_dir",
    "checkpoint": "paths.checkpoint",
    "pairs": "paths.pairs_file",
    "output": "paths.output_dir",
}


def _read_utf8(path) -> str:
    """The text of ``path`` without a leading byte-order mark; a ValueError
    names the file and line of a non-UTF-8 byte."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None


def _load_config(args) -> RunConfig:
    """The config file's keys, then the command-line overrides, over the preset."""
    values = {}
    preset = getattr(args, "preset", None)
    if args.config:
        text = _read_utf8(args.config)
        try:
            values = parse_config_text(text)
            build_run_config(values, preset=preset)  # a value out of range names the file
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            values[key] = getattr(args, flag)
    return build_run_config(values, preset=preset)


def _load_gray_images(directory, size=None):
    """The readable images of ``directory`` with their file names, and the
    number of image files skipped with a warning because they are unreadable."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"image directory not found: {root}")
    images, names, unreadable = [], [], 0
    for path in sorted(root.iterdir()):
        if path.suffix.lower() not in (".png", ".pgm", ".ppm"):
            continue
        try:
            img = image_io.read_image(path)
        except (ValueError, OSError) as exc:
            print(f"warning: skipping unreadable image {path}: {exc}", file=sys.stderr)
            unreadable += 1
            continue
        if size is not None:
            img = image_io.resize_bilinear(img, size)
        images.append(np.clip(img, 0.0, 1.0))
        names.append(path.name)
    return images, names, unreadable


def _format(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        return f"{value:.10g}"
    return str(value)


def _write_csv(path, header, rows, trailer=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_format(row[col]) for col in header] for row in rows)
        if trailer:
            fh.write(trailer + "\n")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    run = _load_config(args)
    if not run.images_dir:
        print("train: an image directory is required (--images or paths.images_dir)",
              file=sys.stderr)
        return USAGE_ERROR
    images, _, _ = _load_gray_images(run.images_dir,
                                     size=(run.train.image_height, run.train.image_width))
    if not images:
        print(f"train: no usable images in {run.images_dir}", file=sys.stderr)
        return RUNTIME_ERROR
    out_dir = Path(run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = em.train(images, run.train)
    model.save_checkpoint(out_dir / "model.ckpt", result.params)
    _write_csv(
        out_dir / "train_log.csv",
        ["iteration", "E_y_L", "mean_num_yhat", "skipped_scenes", "seconds"],
        result.log_rows,
    )
    print(f"checkpoint: {out_dir / 'model.ckpt'}")
    print(f"training log: {out_dir / 'train_log.csv'}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _checked_homography(values) -> np.ndarray:
    """Nine row-major values as a 3x3 homography, which is defined up to scale,
    divided by its largest |entry|. ValueError if a value is not finite or the
    matrix is singular: its singular values spread wider than 1e9."""
    hom = np.array(values, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(hom)):
        raise ValueError("homography holds a non-finite value")
    sing = np.linalg.svd(hom, compute_uv=False)
    if not sing[-1] > 1e-9 * sing[0]:
        raise ValueError("homography is singular")
    return hom / np.abs(hom).max()


def _pairs_from_file(path):
    pairs, skipped = [], 0
    base = Path(path).parent
    for lineno, line in enumerate(_read_utf8(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if len(tokens) != 11:
                raise ValueError("want 11 fields: imgA imgB h11..h33")
            hom = _checked_homography([float(t) for t in tokens[2:]])
            img_a = image_io.read_image(base / tokens[0])
            img_b = image_io.read_image(base / tokens[1])
        except (OSError, ValueError) as exc:
            print(f"warning: pair line {lineno} skipped: {exc}", file=sys.stderr)
            skipped += 1
            continue
        pairs.append((f"{tokens[0]}:{tokens[1]}", img_a, img_b, hom))
    return pairs, skipped


def _pairs_from_directory(run: RunConfig):
    images, names, unreadable = _load_gray_images(run.images_dir)
    per_image = run.eval.pairs_per_image
    pairs, skipped = [], unreadable * per_image
    for idx, (img, name) in enumerate(zip(images, names)):
        try:
            for k in range(per_image):
                rng = np.random.default_rng(
                    np.random.SeedSequence([run.train.seed, idx, k, 0xE7A1])
                )
                _, warped, hom = simulate.make_pair(
                    img, rng, run.train.illumination, run.train.viewpoint
                )
                pairs.append((f"{name}#{k}", img, warped, hom))
        except ValueError as exc:  # a side below 2 pixels, so at k = 0: no pair kept
            print(f"warning: skipping {Path(run.images_dir) / name}: {exc}", file=sys.stderr)
            skipped += per_image
    return pairs, skipped


def evaluate_pair(params, img_a, img_b, hom, eval_cfg, rad, pair_seed=0):
    """Full pipeline on one pair; returns the metrics row plus artifacts."""
    threshold, max_points = eval_cfg.prob_threshold, eval_cfg.max_points
    pts_a = evaluate.detect_points(params, img_a, threshold, rad, max_points)
    pts_b = evaluate.detect_points(params, img_b, threshold, rad, max_points)
    matches = evaluate.match_two_way(pts_a, pts_b)
    score = evaluate.matching_score(
        matches, pts_a, pts_b, hom, img_a.shape, img_b.shape, eval_cfg.epsilon
    )
    estimate = evaluate.estimate_homography(
        matches, pts_a, pts_b,
        seed=pair_seed,
        max_iters=eval_cfg.ransac_iters,
        inlier_threshold=eval_cfg.ransac_threshold,
    )
    height, width = img_a.shape
    error, correct = evaluate.homography_error(estimate, hom, (width, height),
                                               eval_cfg.epsilon)
    row = {
        "m_score": score,
        "homo_error": error,
        "HE": correct,
        "num_points_A": len(pts_a),
        "num_points_B": len(pts_b),
        "num_matches": len(matches),
    }
    return row, (pts_a, pts_b, matches)


def cmd_eval(args) -> int:
    run = _load_config(args)
    if not run.checkpoint:
        print("eval: a checkpoint is required (--checkpoint or paths.checkpoint)",
              file=sys.stderr)
        return USAGE_ERROR
    if not run.pairs_file and not run.images_dir:
        print("eval: provide --pairs or --images", file=sys.stderr)
        return USAGE_ERROR
    params = model.load_checkpoint(run.checkpoint)
    if run.pairs_file:
        pairs, skipped = _pairs_from_file(run.pairs_file)
    else:
        pairs, skipped = _pairs_from_directory(run)
    if not pairs:
        print("eval: no usable pairs", file=sys.stderr)
        return RUNTIME_ERROR
    out_dir = Path(run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(item):
        idx, (pair_id, img_a, img_b, hom) = item
        row, artifacts = evaluate_pair(
            params, img_a, img_b, hom, run.eval, run.train.properties.rad, pair_seed=idx
        )
        return idx, pair_id, row, artifacts, (img_a, img_b, hom)

    # one job runs in the caller: a pool thread would keep its forwards off the lanes
    k = workers.parallelism(len(pairs))
    with ThreadPoolExecutor(k) as pool:
        results = list((pool.map if k > 1 else map)(work, enumerate(pairs)))

    rows = []
    for idx, pair_id, row, (pts_a, pts_b, matches), (img_a, img_b, hom) in results:
        rows.append({"pair_id": pair_id, **row})
        if args.save_visuals:
            correct = evaluate.match_correctness(matches, pts_a, pts_b, hom, run.eval.epsilon)
            canvas = evaluate.render_matches(img_a, img_b, pts_a, pts_b, matches, correct)
            image_io.write_png(out_dir / f"pair_{idx:04d}.png", canvas)

    # the columns are the metrics evaluate_pair returns; each aggregates as
    # its mean over the pairs, homo_error over those whose estimate succeeded
    header = list(rows[0])
    aggregate = {"pair_id": "aggregate"}
    for col in header[1:]:
        values = [r[col] for r in rows if col != "homo_error" or math.isfinite(r[col])]
        aggregate[col] = float(np.mean(values)) if values else float("inf")
    _write_csv(out_dir / "metrics.csv", header, rows + [aggregate],
               trailer=f"# skipped_pairs {skipped}")
    print(f"metrics: {out_dir / 'metrics.csv'}")
    print(f"aggregate m_score {_format(aggregate['m_score'])} "
          f"HE {_format(aggregate['HE'])} over {len(rows)} pairs ({skipped} skipped)")
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def cmd_oracle_check(args) -> int:
    results = checks.run_all_checks()
    failures = sum(not res.passed for res in results)
    if args.json:
        # a deviation that is not finite is null: JSON has no nan or inf
        print(json.dumps([
            {"name": res.name,
             "deviation": float(res.deviation) if math.isfinite(res.deviation) else None,
             "tolerance": res.tolerance, "passed": bool(res.passed), "seconds": res.seconds}
            for res in results
        ]))
    else:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"{res.name:<32} deviation={res.deviation:.3e} "
                  f"tolerance={res.tolerance:.1e} {status}")
        if not failures:
            print(f"all {len(results)} checks passed")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return CHECK_FAILURE
    return 0


# ---------------------------------------------------------------------------
# visualize
# ---------------------------------------------------------------------------


def cmd_visualize(args) -> int:
    run = _load_config(args)
    if not run.checkpoint:
        print("visualize: a checkpoint is required", file=sys.stderr)
        return USAGE_ERROR
    hom = np.eye(3)
    if args.homography:
        try:
            hom = _checked_homography(args.homography)
        except ValueError as exc:
            raise ValueError(f"--homography: {exc}") from None
    params = model.load_checkpoint(run.checkpoint)
    img_a = image_io.read_image(args.image_a)
    img_b = image_io.read_image(args.image_b)
    row, (pts_a, pts_b, matches) = evaluate_pair(
        params, img_a, img_b, hom, run.eval, run.train.properties.rad
    )
    out_dir = Path(run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{Path(args.image_a).stem}__{Path(args.image_b).stem}"
    correct = evaluate.match_correctness(matches, pts_a, pts_b, hom, run.eval.epsilon)
    canvas = evaluate.render_matches(img_a, img_b, pts_a, pts_b, matches, correct)
    png_path = out_dir / f"{stem}.png"
    image_io.write_png(png_path, canvas)
    homo_text = _format(row["homo_error"]) if math.isfinite(row["homo_error"]) else "failed"
    sidecar = out_dir / f"{stem}.txt"
    sidecar.write_text(
        f"m_score {_format(row['m_score'])}\n"
        f"homo_error {homo_text}\n"
        f"num_matches {row['num_matches']}\n"
    )
    print(f"composite: {png_path}")
    print(f"sidecar: {sidecar}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "oracle-check": cmd_oracle_check,
        "visualize": cmd_visualize,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"pointprops {args.command}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
