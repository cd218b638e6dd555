"""Self-contained validation suite: counting, posterior, expectation and
gradient checks at fixed seeds, each reporting a numeric deviation.

Driven by the ``oracle-check`` command; also reused by the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import em, model, oracle, properties, simulate, workers
from .config import PropertyConfig


@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    # wall time of the check in the process that ran it; not part of equality
    seconds: float = field(default=math.nan, compare=False)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _comb_product(m: int, n: int) -> int:
    """Binomial coefficient by the iterative product rule (independent route)."""
    if n < 0 or n > m:
        return 0
    n = min(n, m - n)
    num, den = 1, 1
    for i in range(1, n + 1):
        num *= m - n + i
        den *= i
    return num // den


# ---------------------------------------------------------------------------
# counting checks
# ---------------------------------------------------------------------------


def check_counts_vs_enumeration() -> CheckResult:
    """Closed-form counts equal literal subset enumeration (small supports)."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 15))
        n_min = int(rng.integers(0, m))
        n_max = n_min + int(rng.integers(2, 8))
        inst = oracle.TinyInstance(
            r=np.full(m, 0.5), n_min=n_min, n_max=n_max, c_tilde=np.ones(m)
        )
        space = oracle.enumerate_reduced_space(inst)
        try:
            counts = em.log_count_sample_space(m, n_min, n_max)
        except em.EmptySampleSpaceError:
            worst = max(worst, float(len(space) != 0))
            continue
        with_point = int(space[:, 0].sum())
        enum = (len(space), with_point, len(space) - with_point)
        worst = max(worst, float(counts.exact != enum),
                    abs(counts.log_total - math.log(len(space))))
    return CheckResult("counts-vs-enumeration", worst, 0.0)


def check_counts_bigint() -> CheckResult:
    """Counts for every m <= 60 equal independent big-integer binomial sums."""
    rng = np.random.default_rng(102)
    bounds = [(int(lo), int(lo) + int(step)) for lo, step in
              zip(rng.integers(0, 40, size=20), rng.integers(2, 30, size=20))]
    worst = 0.0
    for m in range(1, 61):
        for n_min, n_max in bounds:
            lo, hi = n_min + 1, min(n_max - 1, m)
            if lo > hi:
                continue
            total = sum(_comb_product(m, n) for n in range(lo, hi + 1))
            with_point = sum(_comb_product(m - 1, n - 1) for n in range(lo, hi + 1))
            counts = em.log_count_sample_space(m, n_min, n_max)
            expected = (total, with_point, total - with_point)
            worst = max(worst, float(counts.exact != expected),
                        abs(counts.log_total - math.log(total)))
    return CheckResult("counts-bigint-exact", worst, 0.0)


def check_count_split_identity() -> CheckResult:
    """exp(logW1) + exp(logW0) equals exp(logTotal) to 1e-9 relative."""
    worst = 0.0
    for m, n_min, n_max in [(40, 5, 20), (60, 10, 40), (300, 40, 120), (2000, 200, 400)]:
        counts = em.log_count_sample_space(m, n_min, n_max)
        s = np.exp(counts.log_with_point - counts.log_total) + np.exp(
            counts.log_without_point - counts.log_total
        )
        worst = max(worst, abs(s - 1.0))
    return CheckResult("count-split-identity", worst, 1e-9)


def _log_comb_sum(m: int, ns) -> float:
    """log of the sum of C(m, n) over ``ns``, by log-gamma (independent route)."""
    terms = [math.lgamma(m + 1) - math.lgamma(n + 1) - math.lgamma(m - n + 1) for n in ns]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def check_gammaln_matches_exact() -> CheckResult:
    """The logs of the exact counts agree with log-gamma sums, for m from 30
    to 300 and windows that reach m."""
    worst = 0.0
    for m in [*range(30, 61, 5), 61, 100, 300]:
        for n_min, n_max in [(4, 12), (10, 25), (0, m + 1)]:
            counts = em.log_count_sample_space(m, n_min, n_max)
            ns = range(n_min + 1, min(n_max - 1, m) + 1)
            for x, y in [(counts.log_total, _log_comb_sum(m, ns)),
                         (counts.log_with_point, _log_comb_sum(m - 1, [n - 1 for n in ns]))]:
                worst = max(worst, abs(x - y) / max(abs(x), 1.0))
    return CheckResult("gammaln-vs-exact", worst, 1e-9)


# ---------------------------------------------------------------------------
# posterior and expectation checks
# ---------------------------------------------------------------------------


def random_tiny_instance(rng, n_points=None) -> oracle.TinyInstance:
    """Random instance from the regime where the closed-form posterior is trusted.

    The averaging approximation behind the closed form is asymptotic in the
    candidate count: on tiny instances it stays within the 0.05 budget only
    for moderate heterogeneity and a count window at least 6 wide (measured
    worst case 0.048 over 600 instances; single-count windows with spread-out
    rates deviate by up to ~0.3 and are excluded here, mirroring the wide
    operating window of real training).
    """
    n = int(rng.integers(8, 13)) if n_points is None else n_points
    n_min = int(rng.integers(0, 3))
    n_max = n_min + 6 + int(rng.integers(0, max(n - n_min - 5, 1)))
    return oracle.TinyInstance(
        r=rng.uniform(0.4, 0.6, size=n),
        n_min=n_min,
        n_max=n_max,
        c_tilde=np.exp(rng.uniform(-0.25, 0.0, size=n)),
    )


def posterior_pair(inst: oracle.TinyInstance):
    """(approximate, exact) posterior vectors over the instance's points."""
    counts = em.log_count_sample_space(inst.num_points, inst.n_min, inst.n_max)
    approx = em.approximate_posterior(inst.r, inst.c_tilde, counts)
    exact = oracle.exact_posterior(inst, oracle.enumerate_reduced_space(inst))
    return approx, exact


def check_posterior_tiny() -> CheckResult:
    """Closed-form posterior within 0.05 of enumeration on 50 random instances."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        approx, exact = posterior_pair(random_tiny_instance(rng))
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    return CheckResult("posterior-tiny-deviation", worst, 0.05)


def check_posterior_symmetric() -> CheckResult:
    """Uniform-weight instances are recovered exactly.

    The averaging factor equals 1 exactly when every feasible mask has the
    same probability, i.e. all points share one c and r = 1 / (1 + c) so
    selected and unselected states carry equal weight. (Merely equal rates
    do not suffice: two symmetric singletons with r = 0.9 give an exact
    marginal of 0.5 but a closed form of 0.9, because the with/without
    averages run over different count shells.)
    """
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 13))
        n_min = int(rng.integers(0, n - 1))
        n_max = n_min + int(rng.integers(2, n + 4))
        c = float(rng.uniform(0.3, 1.0))
        inst = oracle.TinyInstance(
            r=np.full(n, 1.0 / (1.0 + c)),
            n_min=n_min,
            n_max=n_max,
            c_tilde=np.full(n, c),
        )
        try:
            approx, exact = posterior_pair(inst)
        except em.EmptySampleSpaceError:
            continue
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    return CheckResult("posterior-symmetric-exact", worst, 1e-12)


def check_expectation_identities() -> CheckResult:
    """Expectation oracle: constant-c closed form and summation reordering."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        inst = random_tiny_instance(rng, n_points=8)
        inst = oracle.TinyInstance(
            r=inst.r, n_min=inst.n_min, n_max=inst.n_max, c_tilde=np.ones(8)
        )
        space = oracle.enumerate_reduced_space(inst)
        value = oracle.exact_expectation(inst, space)
        p = oracle.exact_posterior(inst, space)
        closed = float(np.sum(p * np.log(inst.r) + (1 - p) * np.log1p(-inst.r)))
        worst = max(worst, abs(value - closed))
        reordered = oracle.exact_expectation(inst, space[::-1])
        worst = max(worst, abs(value - reordered))
    return CheckResult("expectation-identities", worst, 1e-12)


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


def _relative_error(analytic: float, numeric: float) -> float:
    # both sides below central-difference resolution: a genuine zero gradient
    # (e.g. logit-shift directions nulled by the standardization)
    if max(abs(analytic), abs(numeric)) < 1e-8:
        return 0.0
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


# central-difference step, in the float64 sweet spot at the scale of these
# objectives; larger steps occasionally straddle ReLU/max-pool kinks and
# report pure truncation error
FD_STEP = 1e-5


def _sample_entries(params, keys, per_layer, rng):
    for key in keys:
        size = params.weights[key].size
        for flat in rng.choice(size, size=min(per_layer, size), replace=False):
            yield key, int(flat)


def check_model_gradients() -> CheckResult:
    """backward vs central differences across every layer of the toy model,
    on 8 sampled entries of each parameter."""
    rng = np.random.default_rng(106)
    params = model.init_params(106, 4)
    for k in params.weights:
        if k.endswith("_b"):
            params.weights[k] = rng.normal(0.0, 0.05, size=params.weights[k].shape)
    image = rng.random((8, 8))
    out = model.forward(params, image)
    grad_prob = rng.normal(size=out.prob_map.shape)
    # a descriptor gradient at every pixel, in raster order
    rows, cols = np.indices(image.shape).reshape(2, -1)
    grad_desc = rng.normal(size=image.shape + (params.descriptor_dim,)).reshape(rows.size, -1)
    grads = model.backward(params, out, grad_prob, (rows, cols, grad_desc))

    def objective(p):
        o = model.forward(p, image, keep_cache=False)
        return float((grad_prob * o.prob_map).sum() + (grad_desc * o.describe(rows, cols)).sum())

    entries = list(_sample_entries(params, sorted(params.weights), 8, rng))
    assert len(entries) >= 100
    worst = _worst_fd_error(grads, objective, params, entries)
    return CheckResult("grad-model-vs-fd", worst, 1e-4)


def _central_difference(objective, params, key, flat):
    plus = params.copy()
    plus.weights[key].ravel()[flat] += FD_STEP
    minus = params.copy()
    minus.weights[key].ravel()[flat] -= FD_STEP
    return (objective(plus) - objective(minus)) / (2 * FD_STEP)


def _worst_fd_error(analytic, objective, params, entries) -> float:
    """Largest relative error of the analytic gradient entries against
    central differences of ``objective``."""
    worst = 0.0
    for key, flat in entries:
        worst = max(worst, _relative_error(
            analytic[key].ravel()[flat], _central_difference(objective, params, key, flat)
        ))
    return worst


def _chain_deviation(scene, params, prob_up, desc_up, objective, keys, seed):
    """Summed per-view backward of the given upstream maps against central
    differences of ``objective``, on 5 sampled entries of each key."""
    analytic = em.backward_views(params, scene.outputs, prob_up, desc_up)
    entries = _sample_entries(params, keys, 5, np.random.default_rng(seed))
    return _worst_fd_error(analytic, objective, params, entries)


def toy_scene_state():
    """A small simulated scene (24x24, 3 views) with its E-step state, for
    chain checks.

    The seed 7 is pinned to a scene whose candidate points are co-observed
    across views with interior posteriors, so both gradient chains carry
    signal (verified: 11 candidates, p in (0.30, 0.52), nonzero hinge flow).
    """
    rng = np.random.default_rng(7)
    image = rng.random((24, 24))
    scene = simulate.make_scene(image, 3, 7, 0, "illum_mild", "viewpoint_medium")
    cfg = PropertyConfig(rad=2, n_min=2, n_max=14, m_p=0.9, m_n=0.1, neg_weight=0.4,
                         alpha=1.0)
    params = model.init_params(8, 4)
    states, _, _ = em.e_step([scene], params, cfg)
    state = states[0]
    if state is None or state.num_selected < 5:
        raise RuntimeError("chain-check scene degenerated; adjust the fixture")
    return scene, state, params, cfg


def detector_chain_objective(params, scene, state, cfg):
    """The logged expected log-likelihood (summed ``log_likelihood_item``) as
    a function of repeatability, with the posteriors and margins frozen."""
    outs = [model.forward(params, img, keep_cache=False) for img in scene.images]
    return em.expected_log_likelihood(*em.repeatability(scene, outs),
                                      (state.sel_rows, state.sel_cols), state.p, state.h, cfg)


def descriptor_chain_objective(params, scene, state, cfg):
    """The logged expected log-likelihood of the selected points as a function
    of their margins, with their posteriors and repeatability frozen."""
    outs = [model.forward(params, img, keep_cache=False) for img in scene.images]
    descriptors, valid = properties.gather_selected_descriptors(
        state.sel_rows, state.sel_cols, outs, scene
    )
    h = properties.margins(state.num_selected, descriptors, valid, cfg)
    r = state.r[state.sel_rows, state.sel_cols]
    return float(properties.log_likelihood_item(state.p, r, h, cfg).sum())


def check_detector_chain() -> CheckResult:
    scene, state, params, cfg = toy_scene_state()
    prob_up = em.detector_gradient_coefficients(state, scene)
    no_points = np.zeros(0, dtype=int)
    desc_up = [(no_points, no_points, np.zeros((0, params.descriptor_dim)))] * scene.num_views
    keys = ["enc1_w", "enc2_w", "enc3_w", "enc4_w", "det1_w", "det2_w", "det2_b"]
    worst = _chain_deviation(scene, params, prob_up, desc_up,
                             lambda p: detector_chain_objective(p, scene, state, cfg),
                             keys, 108)
    return CheckResult("grad-detector-chain-vs-fd", worst, 1e-4)


def check_descriptor_chain() -> CheckResult:
    scene, state, params, cfg = toy_scene_state()
    prob_up = np.zeros((scene.num_views, *scene.outputs[0].prob_map.shape))
    desc_up = em.descriptor_field_gradients(state, scene, cfg)
    keys = ["enc1_w", "enc2_w", "enc3_w", "enc4_w", "desc1_w", "desc2_w", "desc2_b"]
    worst = _chain_deviation(scene, params, prob_up, desc_up,
                             lambda p: descriptor_chain_objective(p, scene, state, cfg),
                             keys, 109)
    return CheckResult("grad-descriptor-chain-vs-fd", worst, 1e-4)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


# the battery, in report order; each runs by name (``_timed_check``)
CHECKS = (
    check_counts_vs_enumeration,
    check_counts_bigint,
    check_count_split_identity,
    check_gammaln_matches_exact,
    check_posterior_tiny,
    check_posterior_symmetric,
    check_expectation_identities,
    check_model_gradients,
    check_detector_chain,
    check_descriptor_chain,
)


def _timed_check(name: str) -> CheckResult:
    """Run the check ``name``, looked up on this module at call time (so a
    monkeypatched module is what a forked worker runs), and time it."""
    start = time.perf_counter()
    result = globals()[name]()
    return replace(result, seconds=time.perf_counter() - start)


def run_all_checks() -> list:
    """Every check's CheckResult, in CHECKS order.

    The checks share no state, so they run in a ``workers.fork_pool`` of
    k = ``workers.parallelism(10)`` forked worker processes, which inherit
    this process's one BLAS thread; this process only waits. The slow
    gradient checks sit last in the list and are submitted first. With
    k = 1 the battery runs serially in this process. A check's exception is
    raised here with its own type; a worker that dies raises
    BrokenProcessPool, a RuntimeError. The pool is shut down and its
    workers joined before this returns or raises.
    """
    names = [check.__name__ for check in CHECKS]
    size = workers.parallelism(len(names))
    # this process only waits, so one worker would add a fork and no speed
    with workers.fork_pool(size if size > 1 else 0) as pool:
        if pool is None:
            return [_timed_check(name) for name in names]
        futures = {name: pool.submit(_timed_check, name) for name in reversed(names)}
        return [futures[name].result() for name in names]
