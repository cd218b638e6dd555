"""Point-property probabilities: the sparsity neighborhood, discriminability
margins and their gradients, and the per-point expected log-likelihood.
Repeatability, the mean view probability, is ``em.repeatability``.

Discriminability scores each selected point over every ordered pair of
views (a, b). Margins and their gradients share one walk over the J views,
not over the J(J-1) pairs: for each view a, one GEMM of its n rows against
all J*n rows gives the (n, J, n) block of similarities to every view, from
which the terms of all pairs (a, b) are read at once.

All functions are pure. Grids are (H, W) numpy arrays indexed [row, col];
neighborhoods use the Chebyshev (square) metric of radius ``rad`` and never
include the center pixel.
"""

from __future__ import annotations

import numpy as np

from .config import PropertyConfig

PROB_EPS = 1e-7  # clamp for probabilities inside logarithms


def neighborhood_max(values: np.ndarray, rad: int) -> np.ndarray:
    """Max over the Chebyshev-rad neighborhood of each pixel, center excluded.

    Out-of-bounds neighbors count as -inf, so border pixels compete only
    against their in-bounds neighbors.

    The holed square is the max of two separable parts: the rad pixels left
    and right on the center row, and the rad rows above and below, each
    reduced to its full-width max (the first part joined with the pixel
    itself). Max is exact, so this equals the 2-D filter with the holed
    footprint bit for bit.
    """
    if rad < 1:
        raise ValueError(f"rad must be >= 1, got {rad}")
    values = np.asarray(values, dtype=float)
    beside = _max_beside(values, rad, 1)
    above_below = _max_beside(np.maximum(beside, values), rad, 0)
    return np.maximum(above_below, beside, out=above_below)


def select_local_maxima(values: np.ndarray, rad: int) -> np.ndarray:
    """Strict local maxima over the Chebyshev-rad neighborhood.

    Plateaus are never selected; the result always satisfies local sparsity
    because two points within rad would each need to exceed the other.
    """
    values = np.asarray(values, dtype=float)
    return values > neighborhood_max(values, rad)


def _max_beside(values: np.ndarray, rad: int, axis: int) -> np.ndarray:
    """Max over the rad cells before and the rad cells after each cell of a
    2-D array along ``axis``, the cell itself excluded; -inf off the array.

    The array shifted by 1..rad cells each way, folded in with np.maximum.
    """
    def cut(arr, start, stop):
        return arr[(slice(None),) * axis + (slice(start, stop),)]

    out = np.full(values.shape, -np.inf)
    for shift in range(1, rad + 1):
        np.maximum(cut(out, shift, None), cut(values, None, -shift), out=cut(out, shift, None))
        np.maximum(cut(out, None, -shift), cut(values, shift, None), out=cut(out, None, -shift))
    return out


def _view_blocks(descriptors, valid, neg_weight):
    """The walk over views shared by ``margins`` and ``margin_gradients``.

    Returns ``(pairs, rows, neg, blocks)``:

    - ``pairs`` (n,): the ordered view pairs behind each point's margin,
      k * (k - 1) for a point seen in k views;
    - ``rows`` (J*n, d): every view's descriptor rows, view-major, zero
      where unobserved;
    - ``neg`` (J, n): the weight neg_weight / |S_b| of each negative point
      k of view b, 0 where b does not observe k (|S_b| clamped to >= 1);
    - ``blocks``: yields ``(a, sims, both)`` for each view a, where
      sims[i, b, k] = <d_ai, d_bk> is one (n, J, n) GEMM of view a's rows
      against all J*n rows, and both[i, b] says that point i is observed
      in views a and b != a, i.e. that the ordered pair (a, b) counts
      toward point i's margin. ``sims`` is one buffer, refilled for each
      view, so callers may overwrite it.

    An empty view, or a pair with no jointly observed point, has no
    ``both`` entry and so contributes exactly 0. Temporaries stay
    O(J * n^2): no (J*n)^2 Gram matrix is formed.
    """
    valid = np.asarray(valid, dtype=bool)
    desc = np.where(valid[:, :, None], np.asarray(descriptors, dtype=float), 0.0)
    j_views, n, _ = desc.shape
    rows = desc.reshape(j_views * n, -1)
    seen = valid.sum(axis=0)
    neg = valid * (neg_weight / np.maximum(valid.sum(axis=1), 1))[:, None]
    block = np.empty((n, j_views * n))

    def blocks():
        for a in range(j_views):
            both = valid[a][:, None] & valid.T
            both[:, a] = False
            yield a, np.matmul(desc[a], rows.T, out=block).reshape(n, j_views, n), both

    return seen * (seen - 1.0), rows, neg, blocks()


def margins(yhat_count: int, descriptors, valid, cfg: PropertyConfig) -> np.ndarray:
    """Discriminability margins for the selected points of a scene.

    Parameters
    ----------
    yhat_count : int
        Number of selected points n, the rows per view below; must be >= 2.
    descriptors : (J, n, d) array
        One row per view and selected point; rows at unobserved points are
        ignored.
    valid : (J, n) bool array
        Whether each selected point is observed in each view.

    Returns
    -------
    (n,) array: per-point average over ordered view pairs (a, b) with the
    point observed in both of

        min(m_p, sim(d_ai, d_bi))
        - neg_weight / |S_b| * sum over other observed points k of max(m_n, sim(d_ai, d_bk))

    where |S_b| is the count of selected points observed in b. Points
    observed in fewer than two views get the maximal margin (no pair
    evidence, neutral).

    One similarity block per view a, against every view's rows at once,
    gives the terms of all pairs (a, b): the positive similarity is the
    block's diagonal sims[i, b, i], and the negative sum runs over the
    block's row (i, b), minus its k = i term.
    """
    n = int(yhat_count)
    if n < 2:
        raise ValueError(f"need at least 2 selected points, got {n}")
    if len(descriptors) < 2:
        raise ValueError(f"need at least 2 views, got {len(descriptors)}")
    if len(descriptors[0]) != n:
        raise ValueError(f"yhat_count {n} does not match the {len(descriptors[0])} "
                         f"descriptor rows per view")

    pairs, _, neg, blocks = _view_blocks(descriptors, valid, cfg.neg_weight)
    diag = np.arange(n)
    total = np.zeros(n)
    for _, sims, both in blocks:
        own = sims[diag, :, diag]
        hinge = np.maximum(sims, cfg.m_n, out=sims)
        neg_sum = np.einsum("ibk,bk->ib", hinge, neg) - neg.T * np.maximum(cfg.m_n, own)
        total += np.where(both, np.minimum(cfg.m_p, own) - neg_sum, 0.0).sum(axis=1)
    return np.where(pairs > 0, total / np.maximum(pairs, 1.0), cfg.margin_max)


def margin_gradients(descriptors, valid, cfg: PropertyConfig, point_weights):
    """Gradients of sum_i point_weights[i] * h_i w.r.t. every descriptor row.

    Min/max hinges contribute zero on their clipped branch and pass through
    on the active branch; exact equality passes through. Arguments are as
    for ``margins``; returns a (J, n, d) array, zero at unobserved rows.

    Walks the same per-view blocks as ``margins``. With w_i the point's
    weight over its pair count, view a's block turns into the (n, J*n)
    coefficient matrix C_a = diag(w) @ coef, where coef[i, (b, k)] is 1 on
    an open positive hinge (k = i), -neg_weight / |S_b| on an open negative
    hinge (k != i) and 0 elsewhere, for the pairs (a, b) that count. Two
    GEMMs per view then add C_a @ rows to view a's rows and C_a^T @ d_a to
    every view's rows.
    """
    pairs, rows, neg, blocks = _view_blocks(descriptors, valid, cfg.neg_weight)
    j_views, n = neg.shape
    w = np.where(pairs > 0, np.asarray(point_weights, dtype=float) / np.maximum(pairs, 1.0),
                 0.0)
    diag = np.arange(n)
    grads = np.zeros_like(rows)
    for a, sims, both in blocks:
        pos_open = both & (sims[diag, :, diag] <= cfg.m_p)
        sims[~both] = -np.inf
        coef = np.greater_equal(sims, cfg.m_n, out=sims)
        coef *= -neg
        coef[diag, :, diag] = pos_open
        coef = coef.reshape(n, j_views * n)
        own = slice(a * n, (a + 1) * n)
        grads[own] += w[:, None] * (coef @ rows)
        grads += coef.T @ (w[:, None] * rows[own])
    return grads.reshape(j_views, n, -1)


def gather_selected_descriptors(rows, cols, outputs, scene):
    """Descriptor rows and validity of the selected points in every view.

    ``rows``/``cols`` index the n selected canonical points; ``outputs`` are
    the J views' ModelOutputs; ``scene`` needs (J, H, W) ``map_rows``,
    ``map_cols`` and ``valid``. Returns the (J, n, d) rows, zero at
    unobserved points, and the (J, n) validity mask.
    """
    valid = scene.valid[:, rows, cols]
    view_rows = np.where(valid, scene.map_rows[:, rows, cols], 0)
    view_cols = np.where(valid, scene.map_cols[:, rows, cols], 0)
    descriptors = np.stack([out.describe(rr, cc)
                            for out, rr, cc in zip(outputs, view_rows, view_cols)])
    descriptors[~valid] = 0.0
    return descriptors, valid


def discriminability_prob(h, cfg: PropertyConfig):
    """exp(alpha * (h - margin_max)) in (0, 1].

    The implemented margin can exceed margin_max by up to
    neg_weight * m_n / n (the negative normalizer counts the point itself),
    so the excess is capped before exponentiation to keep a probability.
    """
    h = np.asarray(h, dtype=float)
    return np.exp(cfg.alpha * (np.minimum(h, cfg.margin_max) - cfg.margin_max))


def log_likelihood_item(p, r, h, cfg: PropertyConfig):
    """Expected log-likelihood contribution of one point.

    p * log r + (1 - p) * log(1 - r) + alpha * p * (min(h, margin_max) - margin_max),
    with r clamped away from {0, 1} before the logarithms. Always <= 0.
    """
    p = np.asarray(p, dtype=float)
    r = np.clip(np.asarray(r, dtype=float), PROB_EPS, 1.0 - PROB_EPS)
    h = np.minimum(np.asarray(h, dtype=float), cfg.margin_max)
    return p * np.log(r) + (1.0 - p) * np.log1p(-r) + cfg.alpha * p * (h - cfg.margin_max)
