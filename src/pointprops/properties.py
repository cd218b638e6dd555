"""Point-property probabilities: the sparsity neighborhood, discriminability
margins and their gradients, and the per-point expected log-likelihood.
Repeatability, the mean view probability, is ``em.repeatability``.

All functions are pure. Grids are (H, W) numpy arrays indexed [row, col];
neighborhoods use the Chebyshev (square) metric of radius ``rad`` and never
include the center pixel.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .config import PropertyConfig

PROB_EPS = 1e-7  # clamp for probabilities inside logarithms


def neighborhood_max(values: np.ndarray, rad: int) -> np.ndarray:
    """Max over the Chebyshev-rad neighborhood of each pixel, center excluded.

    Out-of-bounds neighbors count as -inf, so border pixels compete only
    against their in-bounds neighbors.
    """
    if rad < 1:
        raise ValueError(f"rad must be >= 1, got {rad}")
    footprint = np.ones((2 * rad + 1, 2 * rad + 1), dtype=bool)
    footprint[rad, rad] = False
    return ndimage.maximum_filter(
        np.asarray(values, dtype=float), footprint=footprint, mode="constant", cval=-np.inf
    )


def _ordered_pairs(descriptors, valid):
    """Yield (j, jp, sims, both, vjp, n_other) over ordered view pairs.

    ``both`` marks points observed in views j and jp; ``n_other`` is the
    number of selected points observed in jp (the negative normalizer).
    Pairs with no jointly observed point or an empty jp set are skipped.
    """
    j_images = len(descriptors)
    for j in range(j_images):
        vj = valid[j]
        for jp in range(j_images):
            if jp == j:
                continue
            vjp = valid[jp]
            n_other = int(vjp.sum())
            if n_other == 0:
                continue
            both = vj & vjp
            if not both.any():
                continue
            yield j, jp, descriptors[j] @ descriptors[jp].T, both, vjp, n_other


def _pair_counts(valid) -> np.ndarray:
    """Ordered view pairs contributing to each point's margin: k * (k - 1)
    for a point observed in k of the views."""
    k = np.sum(valid, axis=0)
    return k * (k - 1.0)


def margins(yhat_count: int, descriptors, valid, cfg: PropertyConfig) -> np.ndarray:
    """Discriminability margins for the selected points of a scene.

    Parameters
    ----------
    yhat_count : int
        Number of selected points n (the rows below); must be >= 2.
    descriptors : (J, n, d) array
        One row per view and selected point; rows at unobserved points are
        ignored.
    valid : (J, n) bool array
        Whether each selected point is observed in each view.

    Returns
    -------
    (n,) array: per-point average over ordered view pairs (j, j') with the
    point observed in both of

        min(m_p, sim(d_ij, d_ij'))
        - neg_weight / |S_j'| * sum over other observed points of max(m_n, sim)

    where |S_j'| is the count of selected points observed in j'. Points
    observed in fewer than two views get the maximal margin (no pair
    evidence, neutral).
    """
    n = int(yhat_count)
    if n < 2:
        raise ValueError(f"need at least 2 selected points, got {n}")
    if len(descriptors) < 2:
        raise ValueError(f"need at least 2 views, got {len(descriptors)}")

    total = np.zeros(n)
    for _, _, sims, both, vjp, n_other in _ordered_pairs(descriptors, valid):
        pos = np.minimum(cfg.m_p, np.diag(sims))
        neg = np.maximum(cfg.m_n, sims)
        neg[:, ~vjp] = 0.0
        neg_sum = neg.sum(axis=1) - np.where(vjp, np.diag(neg), 0.0)
        term = pos - cfg.neg_weight / n_other * neg_sum
        total[both] += term[both]
    pairs = _pair_counts(valid)
    h = np.full(n, cfg.margin_max)
    seen = pairs > 0
    h[seen] = total[seen] / pairs[seen]
    return h


def margin_gradients(descriptors, valid, cfg: PropertyConfig, point_weights):
    """Gradients of sum_i point_weights[i] * h_i w.r.t. every descriptor row.

    Min/max hinges contribute zero on their clipped branch and pass through
    on the active branch; exact equality passes through. Arguments are as
    for ``margins``; returns a (J, n, d) array.
    """
    weights = np.asarray(point_weights, dtype=float)
    pairs = _pair_counts(valid)
    w = np.where(pairs > 0, weights / np.maximum(pairs, 1.0), 0.0)

    grads = np.zeros_like(descriptors)
    for j, jp, sims, both, vjp, n_other in _ordered_pairs(descriptors, valid):
        pos_open = both & (np.diag(sims) <= cfg.m_p)
        grads[j][pos_open] += w[pos_open, None] * descriptors[jp][pos_open]
        grads[jp][pos_open] += w[pos_open, None] * descriptors[j][pos_open]

        neg_open = both[:, None] & vjp[None, :] & (sims >= cfg.m_n)
        np.fill_diagonal(neg_open, False)
        scale = (w * cfg.neg_weight / n_other)[:, None] * neg_open
        grads[j] -= scale @ descriptors[jp]
        grads[jp] -= scale.T @ descriptors[j]
    return grads


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
    descriptors = np.stack([out.desc_field[rr, cc]
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
