"""Mini-batch EM training: candidate selection, combinatorial posterior,
expected log-likelihood, analytic gradients, and the training loop.

The E-step replaces the full latent sample space with the masks dominated by
the local maxima of the repeatability grid, counts that space exactly in closed
form (big integers from one Pascal row), and evaluates a per-point posterior.
The M-step performs one Adam update from the analytic ascent gradients, with
posteriors frozen.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import model, properties, simulate, workers
from .config import PropertyConfig, TrainConfig

log = logging.getLogger(__name__)

# consecutive iterations with every scene skipped after which training stops:
# such an iteration takes no step, so a detector with no candidate left (say,
# dead det1 ReLUs giving constant logits) could never recover
_DEAD_ITERATIONS = 10


class EmptySampleSpaceError(ValueError):
    """No feasible point count: the candidate set is not larger than n_min."""


@dataclass(frozen=True)
class SpaceCounts:
    """Sizes of the reduced sample space and its two halves, with their logs."""

    log_total: float
    log_with_point: float
    log_without_point: float
    exact: tuple  # (total, with, without) big ints


def log_count_sample_space(m: int, n_min: int, n_max: int) -> SpaceCounts:
    """Count masks with a feasible number of points drawn from m candidates.

    total      = sum over n in (n_min, n_max) of C(m, n)
    with point = sum of C(m - 1, n - 1)            (one point pinned to 1)
    without    = sum of C(m - 1, n)                (one point pinned to 0)

    Exact big integers from one Pascal row C(m - 1, k) for k = n_min up to
    min(n_max - 1, m), built by one multiply-divide per step; the logs are
    taken of those ints. Raises EmptySampleSpaceError when no feasible count exists (m <= n_min).
    """
    if m < 1:
        raise ValueError(f"need at least one candidate, got {m}")
    if not n_min < n_max:
        raise ValueError(f"need n_min < n_max, got {n_min}, {n_max}")
    lo, hi = n_min + 1, min(n_max - 1, m)
    if lo > hi:
        raise EmptySampleSpaceError(f"no feasible count for m={m} in ({n_min}, {n_max})")
    row = [math.comb(m - 1, n_min)]
    for k in range(lo, hi + 1):
        row.append(row[-1] * (m - k) // k)
    # Pascal's rule C(m, n) = C(m - 1, n - 1) + C(m - 1, n) splits the total
    with_point = sum(row[:-1])
    without = sum(row[1:])
    total = with_point + without
    return SpaceCounts(
        log_total=math.log(total),
        log_with_point=math.log(with_point),
        log_without_point=math.log(without) if without > 0 else -math.inf,
        exact=(total, with_point, without),
    )


def approximate_posterior(r, c_tilde, counts: SpaceCounts):
    """Per-candidate posterior that the point satisfies all properties.

    p = r * c * W1 / (r * c * W1 + (1 - r) * W0) with W1/W0 the with/without
    space sizes, evaluated in the log domain.
    """
    r = np.clip(np.asarray(r, dtype=float), properties.PROB_EPS, 1.0 - properties.PROB_EPS)
    log_num = np.log(r) + np.log(c_tilde) + counts.log_with_point
    log_den = np.logaddexp(log_num, np.log1p(-r) + counts.log_without_point)
    return np.exp(log_num - log_den)


@dataclass
class LatentState:
    """E-step result for one scene: r and valid_count on the canonical grid,
    the rest one entry per candidate, in sel_rows/sel_cols order."""

    r: np.ndarray  # (H, W) repeatability (0 where never observed)
    valid_count: np.ndarray  # (H, W) number of views observing each point
    sel_rows: np.ndarray  # (m,) candidates: the strict local maxima of r
    sel_cols: np.ndarray
    p: np.ndarray  # (m,) posterior
    h: np.ndarray  # (m,) margins (margin_max when m < 2)
    sel_descriptors: np.ndarray  # (J, m, d)
    sel_valid: np.ndarray  # (J, m) bool
    expected_log_likelihood: float

    @property
    def num_selected(self) -> int:
        return self.sel_rows.size


def e_step(scenes, params: model.ModelParams, cfg: PropertyConfig):
    """Expectation step over a batch of scenes.

    Ensures every scene carries model outputs, then computes repeatability,
    the candidates, their margins, space counts, posteriors, and the expected
    log-likelihood. Scenes with an empty feasible space yield None and a
    warning. Returns (states, total expected log-likelihood, reasons): the
    reasons are the messages of the skipped scenes, in scene order.
    """
    states = []
    total = 0.0
    reasons = []
    for scene in scenes:
        if scene.outputs is None:
            scene.outputs = [model.forward(params, img) for img in scene.images]
        try:
            state = _e_step_scene(scene, cfg)
        except EmptySampleSpaceError as exc:
            log.warning("scene skipped: %s", exc)
            states.append(None)
            reasons.append(str(exc))
            continue
        states.append(state)
        total += state.expected_log_likelihood
    return states, total, reasons


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


def expected_log_likelihood(r, valid_count, sel, p, h, cfg: PropertyConfig) -> float:
    """The logged E[L] of a scene: ``log_likelihood_item`` summed over every
    observed point, with the (m,) posteriors ``p`` and margins ``h`` at the
    candidates ``sel`` = (rows, cols) and p = 0, h = margin_max elsewhere."""
    items = properties.log_likelihood_item(0.0, r, cfg.margin_max, cfg)
    items[sel] = properties.log_likelihood_item(p, r[sel], h, cfg)
    return float(items[valid_count > 0].sum())


def _e_step_scene(scene, cfg: PropertyConfig) -> LatentState:
    r, valid_count = repeatability(scene, scene.outputs)
    # candidates need a strict majority of observing views: repeatability
    # estimated from one or two views is high-variance, and selecting on it
    # rewards firing at view borders instead of repeatable structure
    quorum = valid_count * 2 > scene.num_views
    sel = np.nonzero(properties.select_local_maxima(np.where(quorum, r, -np.inf), cfg.rad))
    m = sel[0].size
    if m == 0:
        raise EmptySampleSpaceError("no candidate local maxima")
    counts = log_count_sample_space(m, cfg.n_min, cfg.n_max)
    descriptors, sel_valid = properties.gather_selected_descriptors(*sel, scene.outputs, scene)
    h = (properties.margins(m, descriptors, sel_valid, cfg) if m >= 2
         else np.full(m, cfg.margin_max))
    p = approximate_posterior(r[sel], properties.discriminability_prob(h, cfg), counts)
    expected = expected_log_likelihood(r, valid_count, sel, p, h, cfg)
    return LatentState(r=r, valid_count=valid_count, sel_rows=sel[0], sel_cols=sel[1], p=p, h=h,
                       sel_descriptors=descriptors, sel_valid=sel_valid,
                       expected_log_likelihood=expected)


def detector_gradient_coefficients(state: LatentState, scene):
    """Ascent-direction upstream gradients on the views' probability maps.

    Every observed canonical point contributes (p - r) / (J_i * r * (1 - r))
    at its corresponding pixel of every view observing it, with J_i the
    point's observation count and r clamped as in the likelihood. Returns a
    (J, H, W) array, one map per view.
    """
    p = np.zeros(state.r.shape)
    p[state.sel_rows, state.sel_cols] = state.p
    r = np.clip(state.r, properties.PROB_EPS, 1.0 - properties.PROB_EPS)
    coeff = (p - r) / (np.maximum(state.valid_count, 1) * r * (1.0 - r))
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
        weights = np.where(state.h <= cfg.margin_max, cfg.alpha * state.p, 0.0)
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


def _train_scene(image, draw, params, cfg: TrainConfig):
    """One scene of a training iteration: simulate its views, run its E-step
    and its ascent gradients. Returns (E[L], candidates, skip reasons,
    gradients); candidates and gradients are None for a skipped scene. Only
    the gradients leave the call, so a worker sends back no tape."""
    scene = simulate.make_scene(image, cfg.transforms_per_scene, cfg.seed, draw,
                                illumination=cfg.illumination, viewpoint=cfg.viewpoint)
    (state,), expected, reasons = e_step([scene], params, cfg.properties)
    if state is None:
        return expected, None, reasons, None
    return (expected, state.num_selected, reasons,
            scene_parameter_gradients(state, scene, params, cfg.properties))


def train(images, cfg: TrainConfig) -> TrainResult:
    """Run T mini-batch EM iterations over an image source.

    Each iteration draws B scenes (cycling with a per-epoch reshuffle when
    the source is short); each scene is simulated (J views), gets its own
    E-step and its own ascent gradients, and one Adam update applies their
    sum. Deterministic for a fixed config and seed.

    The scenes of an iteration run in k = ``workers.parallelism(B)``
    processes: this one runs scenes 0, k, 2k, ... and a
    ``workers.fork_pool`` of k - 1 forked workers, created afresh for each
    call, runs the rest. Both paths run numpy's OpenBLAS at the one thread
    that importing the program set, and E[L] and the gradients are summed
    here in scene order, so the result is bit for bit the serial one and
    does not depend on how many CPUs are usable. With k = 1 training runs
    serially in this process, one scene's tapes alive at a time; where the
    BLAS could not be pinned it keeps its thread count, and at large image
    sizes the bits can depend on it. The workers' memory is not part of
    this process's ``RUSAGE_SELF``.

    Raises ValueError naming the iteration when a scene raises ValueError
    (in this process or a worker), when the kept scenes' E[L] or a summed
    gradient (naming the parameter) is not finite; RuntimeError naming the
    iteration when a worker dies. An iteration whose scenes were all
    skipped takes no step and logs nan; after 10 such iterations in a row,
    ValueError names the iteration and why the last batch's scenes were
    skipped.
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
    procs = workers.parallelism(cfg.batch_scenes)
    with workers.fork_pool(procs - 1) as pool:
        stride = 1 if pool is None else procs  # stride 1: every scene runs here
        for t in range(1, cfg.iterations + 1):
            start = time.perf_counter()
            jobs = []
            for _ in range(cfg.batch_scenes):
                if cursor >= len(order):
                    order = list(order_rng.permutation(len(images)))
                    cursor = 0
                jobs.append((images[order[cursor]], draw))
                cursor += 1
                draw += 1
            try:
                futures = {i: pool.submit(_train_scene, *job, params, cfg)
                           for i, job in enumerate(jobs) if i % stride}
                own = {i: _train_scene(*jobs[i], params, cfg)
                       for i in range(0, len(jobs), stride)}
                results = [own[i] if i in own else futures[i].result()
                           for i in range(len(jobs))]
            except BrokenProcessPool as exc:
                raise RuntimeError(f"iteration {t}: a training worker process died "
                                   f"before returning its scene") from exc
            except ValueError as exc:
                raise ValueError(f"iteration {t}: {exc}") from exc
            expected = 0.0
            grads = model.zero_grads(params)
            selected, reasons = [], []
            for scene_expected, num_selected, scene_reasons, scene_grads in results:
                expected += scene_expected
                reasons += scene_reasons
                if num_selected is not None:
                    selected.append(num_selected)
                    model.accumulate_grads(grads, scene_grads)
            all_skipped = 0 if selected else all_skipped + 1
            if all_skipped == _DEAD_ITERATIONS:
                raise ValueError(f"iteration {t}: every scene skipped for {all_skipped} "
                                 f"iterations in a row ({'; '.join(sorted(set(reasons)))}); "
                                 f"training takes no step")
            if selected:
                if not math.isfinite(expected):
                    raise ValueError(f"iteration {t}: expected log-likelihood E[L] is {expected}")
                for name, grad in grads.items():
                    if not np.all(np.isfinite(grad)):
                        raise ValueError(f"iteration {t}: non-finite gradient for "
                                         f"parameter {name}")
                descent = {k: -v for k, v in grads.items()}
                params, adam = model.apply_update(params, descent, adam, lr=cfg.learning_rate)
                mean_yhat = float(np.mean(selected))
                e_value = expected
            else:
                mean_yhat = float("nan")
                e_value = float("nan")
            rows.append({
                "iteration": t,
                "E_y_L": e_value,
                "mean_num_yhat": mean_yhat,
                "skipped_scenes": len(jobs) - len(selected),
                "seconds": time.perf_counter() - start,
            })
    return TrainResult(params=params, log_rows=rows)
