"""Per-pair discriminability margins and gradients used as a test oracle.

This is the straightforward walk over every ordered view pair (j, j') that
``properties.margins`` and ``properties.margin_gradients`` replace with one
similarity block per view: one (n, n) similarity matrix per pair, pairs
with an empty j' set or no jointly observed point skipped, and the pair
count of a point seen in k views taken as k * (k - 1). It shares no code
with the package, so the per-view walk can be checked against it.
"""

import numpy as np


def ordered_pairs(descriptors, valid):
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


def pair_counts(valid):
    """Ordered view pairs contributing to each point's margin: k * (k - 1)
    for a point observed in k of the views."""
    k = np.sum(valid, axis=0)
    return k * (k - 1.0)


def margins(descriptors, valid, m_p, m_n, neg_weight, margin_max):
    """(n,) margins: the per-point average over ordered pairs of
    min(m_p, pos) - neg_weight / |S_j'| * sum of max(m_n, neg)."""
    n = len(valid[0])
    total = np.zeros(n)
    for _, _, sims, both, vjp, n_other in ordered_pairs(descriptors, valid):
        pos = np.minimum(m_p, np.diag(sims))
        neg = np.maximum(m_n, sims)
        neg[:, ~vjp] = 0.0
        neg_sum = neg.sum(axis=1) - np.where(vjp, np.diag(neg), 0.0)
        term = pos - neg_weight / n_other * neg_sum
        total[both] += term[both]
    pairs = pair_counts(valid)
    h = np.full(n, margin_max)
    seen = pairs > 0
    h[seen] = total[seen] / pairs[seen]
    return h


def margin_gradients(descriptors, valid, m_p, m_n, neg_weight, point_weights):
    """(J, n, d) gradients of sum_i point_weights[i] * h_i; clipped hinge
    branches pass nothing, active branches and exact equality pass through."""
    weights = np.asarray(point_weights, dtype=float)
    pairs = pair_counts(valid)
    w = np.where(pairs > 0, weights / np.maximum(pairs, 1.0), 0.0)

    grads = np.zeros_like(descriptors)
    for j, jp, sims, both, vjp, n_other in ordered_pairs(descriptors, valid):
        pos_open = both & (np.diag(sims) <= m_p)
        grads[j][pos_open] += w[pos_open, None] * descriptors[jp][pos_open]
        grads[jp][pos_open] += w[pos_open, None] * descriptors[j][pos_open]

        neg_open = both[:, None] & vjp[None, :] & (sims >= m_n)
        np.fill_diagonal(neg_open, False)
        scale = (w * neg_weight / n_other)[:, None] * neg_open
        grads[j] -= scale @ descriptors[jp]
        grads[jp] -= scale.T @ descriptors[j]
    return grads
