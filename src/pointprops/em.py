"""Mini-batch EM training: candidate selection, combinatorial posterior,
expected log-likelihood, analytic gradients, and the training loop.

The E-step replaces the full latent sample space with the masks dominated by
the local maxima of the repeatability grid, counts that space in closed form
(log domain), and evaluates a per-point posterior. The M-step performs one
Adam update from the analytic ascent gradients, with posteriors frozen.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from . import model, properties, simulate
from .config import PropertyConfig, TrainConfig

log = logging.getLogger(__name__)

EXACT_COUNT_LIMIT = 60  # big-integer binomials below, log-gamma above
# consecutive iterations with every scene skipped after which training stops:
# such an iteration takes no step, so a detector with no candidate left (say,
# dead det1 ReLUs giving constant logits) could never recover
_DEAD_ITERATIONS = 10


class EmptySampleSpaceError(ValueError):
    """No feasible point count: the candidate set is not larger than n_min."""


@dataclass(frozen=True)
class SpaceCounts:
    """Log-domain sizes of the reduced sample space and its two halves."""

    log_total: float
    log_with_point: float
    log_without_point: float
    exact: tuple | None = None  # (total, with, without) big ints when available


def log_count_sample_space(m: int, n_min: int, n_max: int, method: str = "auto") -> SpaceCounts:
    """Count masks with a feasible number of points drawn from m candidates.

    total      = sum over n in (n_min, n_max) of C(m, n)
    with point = sum of C(m - 1, n - 1)            (one point pinned to 1)
    without    = total - with point

    Exact big-integer arithmetic for m <= 60, log-gamma sums above (override
    with ``method``). Raises EmptySampleSpaceError when no feasible count
    exists (m <= n_min).
    """
    if m < 1:
        raise ValueError(f"need at least one candidate, got {m}")
    if not n_min < n_max:
        raise ValueError(f"need n_min < n_max, got {n_min}, {n_max}")
    lo, hi = n_min + 1, min(n_max - 1, m)
    if lo > hi:
        raise EmptySampleSpaceError(f"no feasible count for m={m} in ({n_min}, {n_max})")
    if method == "auto":
        method = "exact" if m <= EXACT_COUNT_LIMIT else "gammaln"
    if method == "exact":
        total = sum(math.comb(m, n) for n in range(lo, hi + 1))
        with_point = sum(math.comb(m - 1, n - 1) for n in range(lo, hi + 1))
        without = total - with_point
        return SpaceCounts(
            log_total=math.log(total),
            log_with_point=math.log(with_point),
            log_without_point=math.log(without) if without > 0 else -math.inf,
            exact=(total, with_point, without),
        )
    if method != "gammaln":
        raise ValueError(f"unknown counting method {method!r}")
    ns = np.arange(lo, hi + 1, dtype=float)
    log_total = logsumexp(_log_comb(float(m), ns))
    log_with = logsumexp(_log_comb(float(m - 1), ns - 1.0))
    diff = log_with - log_total
    log_without = log_total + math.log1p(-math.exp(diff)) if diff < 0 else -math.inf
    return SpaceCounts(float(log_total), float(log_with), float(log_without))


def _log_comb(m, ns):
    return gammaln(m + 1.0) - gammaln(ns + 1.0) - gammaln(m - ns + 1.0)


def approximate_posterior(r, c_tilde, counts: SpaceCounts, yhat):
    """Per-point posterior that the point satisfies all properties.

    p = r * c * W1 / (r * c * W1 + (1 - r) * W0) with W1/W0 the with/without
    space sizes, evaluated in the log domain; exactly 0 wherever yhat is 0.
    """
    r = np.clip(np.asarray(r, dtype=float), properties.PROB_EPS, 1.0 - properties.PROB_EPS)
    c_tilde = np.asarray(c_tilde, dtype=float)
    yhat = np.asarray(yhat, dtype=bool)
    log_num = np.log(r) + np.log(c_tilde) + counts.log_with_point
    log_den = np.logaddexp(log_num, np.log1p(-r) + counts.log_without_point)
    p = np.exp(log_num - log_den)
    return np.where(yhat, p, 0.0)


@dataclass
class LatentState:
    """E-step result for one scene, on the canonical pixel grid."""

    yhat: np.ndarray  # (H, W) bool, local maxima of r
    p: np.ndarray  # (H, W) posterior, 0 off yhat
    r: np.ndarray  # (H, W) repeatability (0 where never observed)
    valid_count: np.ndarray  # (H, W) number of views observing each point
    h: np.ndarray  # (H, W) margins (margin_max off yhat)
    c_tilde: np.ndarray  # (H, W) discriminability probability (1 off yhat)
    expected_log_likelihood: float
    # selected-point gather, reused by the gradient passes
    sel_rows: np.ndarray = field(repr=False, default=None)
    sel_cols: np.ndarray = field(repr=False, default=None)
    sel_descriptors: np.ndarray = field(repr=False, default=None)  # (J, n, d)
    sel_valid: np.ndarray = field(repr=False, default=None)  # (J, n) bool

    @property
    def num_selected(self) -> int:
        return int(self.yhat.sum())


def e_step(scenes, params: model.ModelParams, cfg: PropertyConfig):
    """Expectation step over a batch of scenes.

    Ensures every scene carries model outputs, then computes repeatability,
    the candidate mask, margins, space counts, posteriors, and the expected
    log-likelihood. Scenes with an empty feasible space yield None and a
    warning. Returns (states, total expected log-likelihood).
    """
    states = []
    total = 0.0
    for scene in scenes:
        if scene.outputs is None:
            scene.outputs = [model.forward(params, img) for img in scene.images]
        try:
            state = _e_step_scene(scene, cfg)
        except EmptySampleSpaceError as exc:
            log.warning("scene skipped: %s", exc)
            states.append(None)
            continue
        states.append(state)
        total += state.expected_log_likelihood
    return states, total


def _skip_reason(scene, cfg: PropertyConfig) -> str:
    """Why ``e_step`` skipped ``scene``: the message of the
    EmptySampleSpaceError that the E-step raises again on the outputs
    ``e_step`` left on the scene."""
    try:
        _e_step_scene(scene, cfg)
    except EmptySampleSpaceError as exc:
        return str(exc)
    return "not skipped"


def repeatability(scene, outputs):
    """Mean detection probability of each canonical point over its views.

    ``outputs`` are the ModelOutputs of the J views of ``scene``. Returns
    (r, valid_count): r is 0 where no view observes the point, and
    valid_count is the number of views observing each point.
    """
    probs = np.stack([out.prob_map for out in outputs])
    probs = probs.ravel()[_view_pixels(scene, probs.shape)]
    valid_count = scene.valid.sum(axis=0)
    r = np.where(scene.valid, probs, 0.0).sum(axis=0) / np.maximum(valid_count, 1)
    return r, valid_count


def _view_pixels(scene, shape):
    """Flat index, into stacked (J, H, W) view maps of ``shape``, of each
    canonical point's corresponding pixel in every view."""
    views, height, width = shape
    return (np.arange(views)[:, None, None] * height + scene.map_rows) * width + scene.map_cols


def _e_step_scene(scene, cfg: PropertyConfig) -> LatentState:
    j_images = scene.num_views
    height, width = scene.valid.shape[1:]
    r, valid_count = repeatability(scene, scene.outputs)
    observed = valid_count > 0

    # candidates need a strict majority of observing views: repeatability
    # estimated from one or two views is high-variance, and selecting on it
    # rewards firing at view borders instead of repeatable structure
    quorum = valid_count * 2 > j_images
    yhat = properties.select_local_maxima(np.where(quorum, r, -np.inf), cfg.rad)
    m = int(yhat.sum())
    if m == 0:
        raise EmptySampleSpaceError("no candidate local maxima")
    counts = log_count_sample_space(m, cfg.n_min, cfg.n_max)

    sel_rows, sel_cols = np.nonzero(yhat)
    descriptors, sel_valid = properties.gather_selected_descriptors(
        sel_rows, sel_cols, scene.outputs, scene
    )
    h_grid = np.full((height, width), cfg.margin_max)
    if m >= 2:
        h_grid[sel_rows, sel_cols] = properties.margins(m, descriptors, sel_valid, cfg)

    c_grid = properties.discriminability_prob(h_grid, cfg)
    p = np.zeros((height, width))
    p[sel_rows, sel_cols] = approximate_posterior(
        r[sel_rows, sel_cols], c_grid[sel_rows, sel_cols], counts, True
    )
    items = properties.log_likelihood_item(p, r, h_grid, cfg)
    expected = float(items[observed].sum())
    return LatentState(
        yhat=yhat,
        p=p,
        r=r,
        valid_count=valid_count,
        h=h_grid,
        c_tilde=c_grid,
        expected_log_likelihood=expected,
        sel_rows=sel_rows,
        sel_cols=sel_cols,
        sel_descriptors=descriptors,
        sel_valid=sel_valid,
    )


def detector_gradient_coefficients(state: LatentState, scene):
    """Ascent-direction upstream gradients on the views' probability maps.

    Every observed canonical point contributes (p - r) / (J_i * r * (1 - r))
    at its corresponding pixel of every view observing it, with J_i the
    point's observation count and r clamped as in the likelihood. Returns a
    (J, H, W) array, one map per view.
    """
    r = np.clip(state.r, properties.PROB_EPS, 1.0 - properties.PROB_EPS)
    coeff = (state.p - r) / (np.maximum(state.valid_count, 1) * r * (1.0 - r))
    # only observed points pass the scene.valid mask; bincount sums each
    # pixel's terms in index order, exactly as np.add.at would
    shape = scene.valid.shape
    weights = np.broadcast_to(coeff, shape)[scene.valid]
    grads = np.bincount(_view_pixels(scene, shape)[scene.valid], weights,
                        minlength=scene.valid.size)
    return grads.reshape(shape)


def descriptor_field_gradients(state: LatentState, scene, cfg: PropertyConfig):
    """Ascent-direction upstream gradients on each view's descriptors, at
    points.

    Chains alpha * p_i through the margin's hinge gates into every descriptor
    row the margin touches. Returns one (rows, cols, grads) per view: the
    view pixels of the selected points that the view observes and their
    (n_j, d) gradients, as ``model.backward`` takes them; points that share
    a view pixel stay separate, and the backward adds them up. A margin
    above the logged cap margin_max passes no gradient; at the cap it
    passes through.
    """
    if state.num_selected < 2:
        row_grads = np.zeros_like(state.sel_descriptors)
    else:
        sel = state.sel_rows, state.sel_cols
        weights = np.where(state.h[sel] <= cfg.margin_max, cfg.alpha * state.p[sel], 0.0)
        row_grads = properties.margin_gradients(
            state.sel_descriptors, state.sel_valid, cfg, weights
        )
    view_rows = scene.map_rows[:, state.sel_rows, state.sel_cols]
    view_cols = scene.map_cols[:, state.sel_rows, state.sel_cols]
    return [(rr[vj], cc[vj], rows_j[vj])
            for rr, cc, rows_j, vj in zip(view_rows, view_cols, row_grads, state.sel_valid)]


def backward_views(params, outputs, prob_up, desc_up):
    """Summed ``model.backward`` of each view's upstream gradients (a
    probability map and descriptor gradients at points), accumulated in view
    order 0..J-1 so training is deterministic."""
    total = model.zero_grads(params)
    for out, grad_prob, grad_desc in zip(outputs, prob_up, desc_up):
        model.accumulate_grads(total, model.backward(params, out, grad_prob, grad_desc))
    return total


def scene_parameter_gradients(state: LatentState, scene, params, cfg: PropertyConfig):
    """Ascent gradients of the scene's expected log-likelihood w.r.t. params."""
    return backward_views(params, scene.outputs,
                          detector_gradient_coefficients(state, scene),
                          descriptor_field_gradients(state, scene, cfg))


@dataclass
class TrainResult:
    params: model.ModelParams
    log_rows: list  # dicts: iteration, E_y_L, mean_num_yhat, skipped_scenes, seconds


def train(images, cfg: TrainConfig) -> TrainResult:
    """Run T mini-batch EM iterations over an image source.

    Each iteration draws B scenes (cycling with a per-epoch reshuffle when
    the source is short), simulates J views per scene, runs the E-step, and
    applies one Adam update from the summed ascent gradients. Deterministic
    for a fixed config and seed.

    Raises ValueError naming the iteration when the kept scenes' E[L] or a
    summed gradient (naming the parameter) is not finite. An iteration
    whose scenes were all skipped takes no step and logs nan; after 10 such
    iterations in a row, ValueError names the iteration and why the last
    batch's scenes were skipped.
    """
    images = [np.asarray(img, dtype=float) for img in images]
    if not images:
        raise ValueError("image source is empty")
    params = model.init_params(cfg.seed, cfg.descriptor_dim)
    adam = model.AdamState.fresh(params)
    order_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD0]))
    order = list(order_rng.permutation(len(images)))
    cursor = 0
    draw = 0
    rows = []
    all_skipped = 0  # consecutive iterations with every scene skipped
    for t in range(1, cfg.iterations + 1):
        start = time.perf_counter()
        scenes = []
        for _ in range(cfg.batch_scenes):
            if cursor >= len(order):
                order = list(order_rng.permutation(len(images)))
                cursor = 0
            scenes.append(
                simulate.make_scene(
                    images[order[cursor]],
                    cfg.transforms_per_scene,
                    cfg.seed,
                    draw,
                    illumination=cfg.illumination,
                    viewpoint=cfg.viewpoint,
                )
            )
            cursor += 1
            draw += 1
        states, expected = e_step(scenes, params, cfg.properties)
        kept = [(st, sc) for st, sc in zip(states, scenes) if st is not None]
        skipped = len(scenes) - len(kept)
        all_skipped = 0 if kept else all_skipped + 1
        if all_skipped == _DEAD_ITERATIONS:
            reasons = "; ".join(sorted({_skip_reason(sc, cfg.properties) for sc in scenes}))
            raise ValueError(f"iteration {t}: every scene skipped for {all_skipped} "
                             f"iterations in a row ({reasons}); training takes no step")
        if kept:
            if not math.isfinite(expected):
                raise ValueError(f"iteration {t}: expected log-likelihood E[L] is {expected}")
            grads = model.zero_grads(params)
            for state, scene in kept:
                model.accumulate_grads(
                    grads, scene_parameter_gradients(state, scene, params, cfg.properties)
                )
            for name, grad in grads.items():
                if not np.all(np.isfinite(grad)):
                    raise ValueError(f"iteration {t}: non-finite gradient for parameter {name}")
            descent = {k: -v for k, v in grads.items()}
            params, adam = model.apply_update(
                params, descent, adam,
                lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps,
            )
            mean_yhat = float(np.mean([st.num_selected for st, _ in kept]))
            e_value = expected
        else:
            mean_yhat = float("nan")
            e_value = float("nan")
        rows.append({
            "iteration": t,
            "E_y_L": e_value,
            "mean_num_yhat": mean_yhat,
            "skipped_scenes": skipped,
            "seconds": time.perf_counter() - start,
        })
    return TrainResult(params=params, log_rows=rows)
