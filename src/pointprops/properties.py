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
    """Yield (j, jp, sims, both, vjp, n_other) over ordered image pairs.

    ``both`` marks points observed in image j and image jp; ``n_other`` is
    the number of selected points observed in jp (the negative normalizer).
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


def margins(yhat_count: int, descriptors, valid, cfg: PropertyConfig) -> np.ndarray:
    """Discriminability margins for the selected points of a scene.

    Parameters
    ----------
    yhat_count : int
        Number of selected points n (the rows below); must be >= 2.
    descriptors : list of (n, d) arrays
        One row per selected point for each of the J images; rows at
        unobserved points are ignored.
    valid : list of (n,) bool arrays
        Whether each selected point is observed in each image.

    Returns
    -------
    (n,) array: per-point average over ordered image pairs (j, j') with the
    point observed in both of

        min(m_p, sim(d_ij, d_ij'))
        - neg_weight / |S_j'| * sum over other observed points of max(m_n, sim)

    where |S_j'| is the count of selected points observed in j'. Points
    observed in fewer than two images get the maximal margin (no pair
    evidence, neutral).
    """
    n = int(yhat_count)
    if n < 2:
        raise ValueError(f"need at least 2 selected points, got {n}")
    if len(descriptors) < 2:
        raise ValueError(f"need at least 2 images, got {len(descriptors)}")
    valid = [np.asarray(v, dtype=bool) for v in valid]

    total = np.zeros(n)
    pairs = np.zeros(n)
    for _, _, sims, both, vjp, n_other in _ordered_pairs(descriptors, valid):
        pos = np.minimum(cfg.m_p, np.diag(sims))
        neg = np.maximum(cfg.m_n, sims)
        neg[:, ~vjp] = 0.0
        neg_sum = neg.sum(axis=1) - np.where(vjp, np.diag(neg), 0.0)
        term = pos - cfg.neg_weight / n_other * neg_sum
        total[both] += term[both]
        pairs[both] += 1.0
    h = np.full(n, cfg.margin_max)
    seen = pairs > 0
    h[seen] = total[seen] / pairs[seen]
    return h


def margin_pair_counts(descriptors, valid) -> np.ndarray:
    """Number of ordered image pairs contributing to each point's margin."""
    valid = [np.asarray(v, dtype=bool) for v in valid]
    pairs = np.zeros(valid[0].shape[0])
    for _, _, _, both, _, _ in _ordered_pairs(descriptors, valid):
        pairs[both] += 1.0
    return pairs


def margin_gradients(descriptors, valid, cfg: PropertyConfig, point_weights):
    """Gradients of sum_i point_weights[i] * h_i w.r.t. every descriptor row.

    Min/max hinges contribute zero on their clipped branch and pass through
    on the active branch; exact equality passes through. Returns one (n, d)
    array per image.
    """
    valid = [np.asarray(v, dtype=bool) for v in valid]
    weights = np.asarray(point_weights, dtype=float)
    pairs = margin_pair_counts(descriptors, valid)
    w = np.where(pairs > 0, weights / np.maximum(pairs, 1.0), 0.0)

    grads = [np.zeros_like(d) for d in descriptors]
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
    """Collect per-image descriptor rows and validity for the selected points.

    ``rows``/``cols`` index the selected canonical points; ``outputs`` holds
    one ModelOutput per view; ``scene`` needs ``map_rows`` / ``map_cols``
    (J, H, W) correspondence grids and ``valid`` (J, H, W) masks. Rows at
    unobserved points are zeroed.
    """
    descriptors, valid = [], []
    for j, out in enumerate(outputs):
        vj = scene.valid[j][rows, cols]
        rr = np.where(vj, scene.map_rows[j][rows, cols], 0)
        cc = np.where(vj, scene.map_cols[j][rows, cols], 0)
        dj = out.desc_field[rr, cc]
        dj[~vj] = 0.0
        descriptors.append(dj)
        valid.append(vj)
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
