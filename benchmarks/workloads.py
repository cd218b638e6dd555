"""The three benchmark workloads and the per-layer metrics of the traced run.

A workload prepares its inputs from the seed (``setup``), then runs whole
cycles of identical work (``run_cycle``) so that an untraced and a traced
pass over the same cycles measure the same operations:

- ``train-64``: one cycle is ``em.train`` for ``Train64.CHUNK`` iterations at
  the default TrainConfig, from scratch; an item is one EM iteration.
- ``eval-240x320``: every cycle scores the same seeded pairs with
  ``cli.evaluate_pair``; an item is one pair.
- ``oracle-check``: one cycle is ``checks.run_all_checks()``; an item is one
  full battery, and each check is one operation for failure accounting.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import inputs
from pointprops import checks, cli, em, evaluate, model, oracle, properties, simulate
from pointprops.config import EvalConfig, PropertyConfig, TrainConfig

TRACED_MODULES = (simulate, model, em, properties, evaluate, cli, checks, oracle)

BENCH_DIR = Path(__file__).resolve().parent
EVAL_CKPT = BENCH_DIR / "eval_checkpoint" / "model.ckpt"
EVAL_CKPT_SHA256 = "37178421772431214515e2628294ae4f9ee2f134a4afbde9ca1f07a1c05f80ac"

# spatial divisor of each 3x3 conv relative to the input image (see the
# architecture in model.py): the encoder pools twice, the detection head runs
# at full resolution, the descriptor head at quarter resolution
CONV_SCALE = {"enc1": 1, "enc2": 1, "enc3": 2, "enc4": 2,
              "det1": 1, "det2": 1, "desc1": 4, "desc2": 4}

CHECK_NAMES = (
    "check_counts_vs_enumeration", "check_counts_bigint", "check_count_split_identity",
    "check_gammaln_matches_exact", "check_posterior_tiny", "check_posterior_symmetric",
    "check_expectation_identities", "check_model_gradients", "check_detector_chain",
    "check_descriptor_chain",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run: missing or altered fixed inputs."""


def conv_flops(params: model.ModelParams, shape) -> int:
    """Computed multiply-add FLOPs of the forward 3x3 convs for one image.

    2 * H_l * W_l * C_in * 9 * C_out per conv layer; pooling, upsampling,
    normalisation and im2col copies are not counted.
    """
    height, width = shape[:2]
    total = 0
    for name, kind, cin, cout in params.layer_topology:
        if kind.startswith("conv3x3"):
            scale = CONV_SCALE[name]
            total += 2 * (height // scale) * (width // scale) * cin * 9 * cout
    return total


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def checkpoint_sha256(params: model.ModelParams) -> str:
    """sha256 of the checkpoint file ``model.save_checkpoint`` writes.

    The file goes to a temporary directory inside the checkout, because the
    benchmark writes nowhere else; the directory is removed on return.
    """
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as tmp:
        path = Path(tmp) / "model.ckpt"
        model.save_checkpoint(path, params)
        return file_sha256(path)


@dataclass
class Cycle:
    """One cycle's timings and operation counts."""

    wall_s: float
    item_s: list
    attempted: int
    failed: int
    payload: object = None


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Train64:
    name = "train-64"
    item = "iteration"
    items = "iterations"
    expected = ("em.train", "simulate.make_scene", "model.forward", "model.backward",
                "model.apply_update", "em.e_step", "em.scene_parameter_gradients",
                "em.detector_gradient_coefficients", "em.descriptor_field_gradients",
                "properties.margins", "properties.margin_gradients")
    IMAGES = 16
    CHUNK = 8

    def setup(self, seed):
        images = inputs.shape_scenes(seed, self.IMAGES)
        cfg = TrainConfig(iterations=self.CHUNK, seed=seed)
        em.train(images, replace(cfg, iterations=1))  # warm-up
        return {"images": images, "cfg": cfg}

    def run_cycle(self, state, index) -> Cycle:
        """Every cycle trains the same config from scratch."""
        iterations = state["cfg"].iterations
        start = time.perf_counter()
        try:
            result = em.train(state["images"], state["cfg"])
        except (ValueError, ArithmeticError, np.linalg.LinAlgError):
            wall = time.perf_counter() - start
            return Cycle(wall, [wall / iterations] * iterations, iterations, iterations)
        wall = time.perf_counter() - start
        rows = result.log_rows
        failed = sum(not math.isfinite(row["E_y_L"]) for row in rows)
        return Cycle(wall, [row["seconds"] for row in rows], len(rows), failed, result)

    def check(self, state, cycles) -> tuple[list, dict]:
        problems = []
        digests = []
        for cycle in cycles:
            result = cycle.payload
            if result is None:
                problems.append("em.train raised")
                continue
            if cycle.failed:
                problems.append(f"{cycle.failed} iteration(s) with non-finite E_y_L")
            if not all(np.isfinite(w).all() for w in result.params.weights.values()):
                problems.append("non-finite final parameter")
            digests.append(checkpoint_sha256(result.params))
        if len(set(digests)) > 1:
            problems.append("identical training runs produced different checkpoints")
        return problems, {"checkpoint_sha256": digests[0] if digests else None}

    def hooks(self, counts: Counter) -> dict:
        return {**_model_hooks(counts), **_em_hooks(counts)}


class Eval240x320:
    name = "eval-240x320"
    item = "pair"
    items = "pairs"
    expected = ("cli.evaluate_pair", "model.forward", "evaluate.extract_points",
                "evaluate.match_two_way", "evaluate.matching_score",
                "evaluate.estimate_homography")
    PAIRS = 8
    SHAPE = (240, 320)
    ILLUMINATION = "illum_mild"
    VIEWPOINT = "viewpoint_medium"

    def setup(self, seed):
        if not EVAL_CKPT.is_file():
            raise BenchmarkError(f"fixed eval checkpoint missing: {EVAL_CKPT.name}")
        digest = file_sha256(EVAL_CKPT)
        if digest != EVAL_CKPT_SHA256:
            raise BenchmarkError(f"eval checkpoint sha256 {digest} != {EVAL_CKPT_SHA256}")
        params = model.load_checkpoint(EVAL_CKPT)
        eval_cfg = EvalConfig()
        rad = PropertyConfig().rad
        pair_list = inputs.eval_pairs(seed, self.PAIRS, self.SHAPE,
                                      self.ILLUMINATION, self.VIEWPOINT, simulate.make_pair)
        # warm-up on an unwarped self-pair, which must recover H = I exactly
        image = pair_list[0][0]
        row, _ = cli.evaluate_pair(params, image, image, np.eye(3), eval_cfg, rad)
        problems = []
        if row["HE"] != 1 or not row["homo_error"] < 1e-6:
            problems.append(f"identity pair: HE={row['HE']} error={row['homo_error']}")
        return {"params": params, "eval_cfg": eval_cfg, "rad": rad, "pairs": pair_list,
                "problems": problems}

    def run_cycle(self, state, index) -> Cycle:
        """Every cycle scores all PAIRS seeded pairs, so every cycle is the same work."""
        rows, item_s, failed = [], [], 0
        start = time.perf_counter()
        for idx, (img_a, img_b, hom) in enumerate(state["pairs"]):
            t0 = time.perf_counter()
            try:
                row, _ = cli.evaluate_pair(state["params"], img_a, img_b, hom,
                                           state["eval_cfg"], state["rad"], pair_seed=idx)
            except (ValueError, np.linalg.LinAlgError):
                row = None
                failed += 1
            item_s.append(time.perf_counter() - t0)
            rows.append((idx, row))
        wall = time.perf_counter() - start
        return Cycle(wall, item_s, len(rows), failed, rows)

    def check(self, state, cycles) -> tuple[list, dict]:
        problems = list(state["problems"])
        max_points = state["eval_cfg"].max_points
        scored = {}
        for cycle in cycles:
            for idx, row in cycle.payload:
                if row is None:
                    problems.append(f"pair {idx} raised")
                elif idx not in scored:
                    scored[idx] = row
                    problems.extend(f"pair {idx}: {p}" for p in _row_problems(row, max_points))
                elif row != scored[idx]:
                    problems.append(f"pair {idx}: scoring it again gave a different row")
        rows = list(scored.values())
        notes = {
            "m_score": float(np.mean([r["m_score"] for r in rows])) if rows else 0.0,
            "he_rate": float(np.mean([r["HE"] for r in rows])) if rows else 0.0,
            "pairs": len(rows),
        }
        return problems, notes

    def hooks(self, counts: Counter) -> dict:
        def extract(args, kwargs, result):
            counts["extract.calls"] += 1
            counts["extract.points"] += len(result)

        def match(args, kwargs, result):
            counts["match.calls"] += 1
            counts["match.matches"] += len(result)

        def homography(args, kwargs, result):
            counts["homography.calls"] += 1
            counts["homography.failed"] += result is None

        def pair(args, kwargs, result):
            _, (pts_a, pts_b, matches) = result
            hom, eval_cfg = args[3], args[4]
            correct = evaluate.match_correctness(matches, pts_a, pts_b, hom, eval_cfg.epsilon)
            counts["pair.matches"] += len(matches)
            counts["pair.correct"] += int(correct.sum())

        return {
            **_model_hooks(counts),
            "evaluate.extract_points": extract,
            "evaluate.match_two_way": match,
            "evaluate.estimate_homography": homography,
            "cli.evaluate_pair": pair,
        }


class OracleCheck:
    name = "oracle-check"
    item = "battery"
    items = "batteries"
    expected = ("checks.run_all_checks", "model.forward", "model.backward",
                "oracle.enumerate_reduced_space", "oracle.exact_posterior",
                *(f"checks.{name}" for name in CHECK_NAMES))

    def setup(self, seed):
        # the battery pins its own seeds; the workload seed changes nothing
        checks.check_model_gradients()  # warm-up
        return {}

    def run_cycle(self, state, index) -> Cycle:
        start = time.perf_counter()
        try:
            results = checks.run_all_checks()
        except (ValueError, RuntimeError, AssertionError, ArithmeticError) as exc:
            results = exc
        wall = time.perf_counter() - start
        if isinstance(results, Exception):
            return Cycle(wall, [wall], len(CHECK_NAMES), len(CHECK_NAMES), [repr(results)])
        failed = [f"{r.name} deviation {r.deviation:.3e} > {r.tolerance:.1e}"
                  for r in results if not r.passed]
        return Cycle(wall, [wall], len(results), len(failed), failed)

    def check(self, state, cycles) -> tuple[list, dict]:
        problems = sorted({msg for cycle in cycles for msg in cycle.payload})
        if any(cycle.attempted != len(CHECK_NAMES) for cycle in cycles):
            problems.append(f"battery did not run {len(CHECK_NAMES)} checks")
        return problems, {}

    def hooks(self, counts: Counter) -> dict:
        return _model_hooks(counts)


WORKLOADS = {w.name: w for w in (Train64(), Eval240x320(), OracleCheck())}


def _row_problems(row, max_points) -> list:
    problems = []
    if not 0.0 <= row["m_score"] <= 1.0:
        problems.append(f"m_score {row['m_score']} outside [0, 1]")
    if row["HE"] not in (0, 1):
        problems.append(f"HE {row['HE']} not 0/1")
    if not row["homo_error"] >= 0.0:
        problems.append(f"homo_error {row['homo_error']} negative or nan")
    if row["HE"] == 1 and not math.isfinite(row["homo_error"]):
        problems.append("HE=1 with an infinite error")
    for key in ("num_points_A", "num_points_B"):
        if not 0 <= row[key] <= max_points:
            problems.append(f"{key} {row[key]} outside [0, {max_points}]")
    if not 0 <= row["num_matches"] <= min(row["num_points_A"], row["num_points_B"]):
        problems.append(f"num_matches {row['num_matches']} exceeds the point counts")
    return problems


def _model_hooks(counts: Counter) -> dict:
    def forward(args, kwargs, result):
        params, image = args[0], args[1]
        counts["forward.flop"] += conv_flops(params, np.shape(image))
        counts["forward.cache_bytes"] += sum(
            v.nbytes for v in result.cache.values() if isinstance(v, np.ndarray))

    def backward(args, kwargs, result):
        params, output = args[0], args[1]
        # weight and input gradients: two GEMMs of the forward's size per conv
        counts["backward.flop"] += 2 * conv_flops(params, output.prob_map.shape)

    return {"model.forward": forward, "model.backward": backward}


def _em_hooks(counts: Counter) -> dict:
    def e_step(args, kwargs, result):
        cfg = args[2]
        for state in result[0]:
            counts["em.scenes"] += 1
            if state is None:
                counts["em.skipped"] += 1
                continue
            counts["em.kept"] += 1
            counts["em.candidates"] += state.num_selected
            counts["em.over_nmax"] += state.num_selected >= cfg.n_max

    def margins(args, kwargs, result):
        counts["margins.calls"] += 1
        counts["margins.points"] += args[0]

    return {"em.e_step": e_step, "properties.margins": margins}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit); spans are normalised per workload item (iteration, pair or
# battery), so ``calls`` and ``busy_s`` read as "per item"
PER_LAYER = (
    ("simulate.make_scene.calls", "count"),
    ("simulate.make_scene.busy_s", "s"),
    ("model.forward.calls", "count"),
    ("model.forward.busy_s", "s"),
    ("model.forward.ms_per_call", "ms"),
    ("model.forward.cache_mb", "MiB"),
    ("model.forward.gflop_per_s", "GFLOP/s"),
    ("model.backward.calls", "count"),
    ("model.backward.busy_s", "s"),
    ("model.backward.ms_per_call", "ms"),
    ("model.backward.gflop_per_s", "GFLOP/s"),
    ("model.apply_update.busy_s", "s"),
    ("em.e_step.self_s", "s"),
    ("em.scene_parameter_gradients.self_s", "s"),
    ("em.detector_gradient_coefficients.busy_s", "s"),
    ("em.descriptor_field_gradients.self_s", "s"),
    ("properties.margins.busy_s", "s"),
    ("properties.margins.points_per_call", "count"),
    ("properties.margin_gradients.busy_s", "s"),
    ("em.candidates_per_scene", "count"),
    ("em.over_nmax_ratio", "ratio"),
    ("em.skipped_scene_ratio", "ratio"),
    ("cli.evaluate_pair.self_s", "s"),
    ("evaluate.extract_points.busy_s", "s"),
    ("evaluate.match_two_way.busy_s", "s"),
    ("evaluate.matching_score.busy_s", "s"),
    ("evaluate.estimate_homography.busy_s", "s"),
    ("evaluate.extract_points.points_per_call", "count"),
    ("evaluate.match_two_way.matches_per_call", "count"),
    ("evaluate.correct_match_ratio", "ratio"),
    ("evaluate.estimate_homography.fail_ratio", "ratio"),
    ("evaluate.m_score", "ratio"),
    ("evaluate.he_rate", "ratio"),
    *((f"checks.{name}.busy_s", "s") for name in CHECK_NAMES),
    ("oracle.enumerate_reduced_space.busy_s", "s"),
    ("oracle.exact_posterior.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_per_item", "count"),
    ("trace.unmeasured", "count"),
)


def per_layer_metrics(workload, stats, counts: Counter, items, overhead, notes) -> dict:
    """Derive every PER_LAYER value from label stats and hook counts."""
    values = {}
    for name, _ in PER_LAYER:
        label, _, kind = name.rpartition(".")
        entry = stats.get(label)
        if kind in ("calls", "busy_s", "self_s") and label.count(".") == 1:
            raw = 0.0 if entry is None else getattr(entry, kind)
            values[name] = raw / items
    fwd, bwd = stats.get("model.forward"), stats.get("model.backward")
    values["model.forward.ms_per_call"] = _ratio(1e3 * fwd.busy_s, fwd.calls) if fwd else 0.0
    values["model.backward.ms_per_call"] = _ratio(1e3 * bwd.busy_s, bwd.calls) if bwd else 0.0
    values["model.forward.cache_mb"] = (
        _ratio(counts["forward.cache_bytes"], fwd.calls) / 2**20 if fwd else 0.0)
    values["model.forward.gflop_per_s"] = (
        _ratio(counts["forward.flop"], fwd.busy_s) / 1e9 if fwd else 0.0)
    values["model.backward.gflop_per_s"] = (
        _ratio(counts["backward.flop"], bwd.busy_s) / 1e9 if bwd else 0.0)
    values["properties.margins.points_per_call"] = _ratio(
        counts["margins.points"], counts["margins.calls"])
    values["em.candidates_per_scene"] = _ratio(counts["em.candidates"], counts["em.kept"])
    values["em.over_nmax_ratio"] = _ratio(counts["em.over_nmax"], counts["em.scenes"])
    values["em.skipped_scene_ratio"] = _ratio(counts["em.skipped"], counts["em.scenes"])
    values["evaluate.extract_points.points_per_call"] = _ratio(
        counts["extract.points"], counts["extract.calls"])
    values["evaluate.match_two_way.matches_per_call"] = _ratio(
        counts["match.matches"], counts["match.calls"])
    values["evaluate.correct_match_ratio"] = _ratio(
        counts["pair.correct"], counts["pair.matches"])
    values["evaluate.estimate_homography.fail_ratio"] = _ratio(
        counts["homography.failed"], counts["homography.calls"])
    values["evaluate.m_score"] = notes.get("m_score", 0.0)
    values["evaluate.he_rate"] = notes.get("he_rate", 0.0)
    values["trace.overhead_ratio"] = overhead
    values["trace.spans_per_item"] = sum(e.calls for e in stats.values()) / items
    values["trace.unmeasured"] = float(len(unmeasured(workload, stats)))
    return {name: values[name] for name, _ in PER_LAYER}


def unmeasured(workload, stats) -> list:
    """Functions the workload must call that recorded no span."""
    return [label for label in workload.expected
            if label not in stats or stats[label].calls == 0]


def median(values) -> float:
    return float(statistics.median(values))
