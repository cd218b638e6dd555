"""Mask-by-mask enumeration oracle used as a test reference.

This is the per-mask walk that ``pointprops.oracle`` replaces with one
boolean matrix per space: each feasible mask is built as its own array,
weighed on its own and its latent log-likelihood summed on its own. It
shares no code with the package, so the matrix oracle can be checked
against it bit for bit.
"""

import itertools

import numpy as np


def enumerate_reduced_space(inst) -> list:
    """All masks over the instance's points with a feasible point count
    (strict bounds), by ascending count, then in ``itertools.combinations``
    order."""
    masks = []
    for n in range(inst.n_min + 1, min(inst.n_max - 1, inst.r.size) + 1):
        for chosen in itertools.combinations(range(inst.r.size), n):
            mask = np.zeros(inst.r.size, dtype=bool)
            mask[list(chosen)] = True
            masks.append(mask)
    return masks


def mask_weight(inst, mask) -> float:
    rep = np.where(mask, inst.r, 1.0 - inst.r)
    disc = np.where(mask, inst.c_tilde, 1.0)
    return float(np.prod(rep) * np.prod(disc))


def log_likelihood_of_mask(inst, mask) -> float:
    terms = np.where(mask, np.log(inst.r) + np.log(inst.c_tilde), np.log1p(-inst.r))
    return float(terms.sum())


def exact_posterior(inst, masks) -> np.ndarray:
    weights = np.array([mask_weight(inst, mask) for mask in masks])
    stacked = np.array(masks, dtype=float)
    return (weights @ stacked) / weights.sum()


def exact_expectation(inst, masks) -> float:
    weights = np.array([mask_weight(inst, mask) for mask in masks])
    values = np.array([log_likelihood_of_mask(inst, mask) for mask in masks])
    return float((weights / weights.sum()) @ values)
