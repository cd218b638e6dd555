"""Brute-force reference computations over explicitly enumerated mask spaces.

Everything here exists to validate the closed-form training path on tiny
instances: spaces are enumerated mask by mask, posteriors and expectations
are computed from the full distribution. A hard cap of 20 points keeps the
enumeration honest and sub-second.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MAX_POINTS = 20


@dataclass
class TinyInstance:
    """A small abstract scene: per-point repeatability ``r`` and constant
    per-point discriminability probabilities ``c_tilde``."""

    r: np.ndarray
    n_min: int
    n_max: int
    c_tilde: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.c_tilde = np.asarray(self.c_tilde, dtype=float)
        if self.num_points > MAX_POINTS:
            raise ValueError(f"instance has {self.num_points} points; cap is {MAX_POINTS}")
        if np.any(self.r <= 0.0) or np.any(self.r >= 1.0):
            raise ValueError("repeatability values must lie strictly inside (0, 1)")

    @property
    def num_points(self) -> int:
        return self.r.size


def enumerate_reduced_space(inst: TinyInstance, yhat) -> list:
    """All masks dominated by yhat with a feasible point count (strict bounds)."""
    yhat = np.asarray(yhat, dtype=bool)
    support = np.flatnonzero(yhat)
    if support.size > MAX_POINTS:
        raise ValueError(f"support of {support.size} points exceeds the cap of {MAX_POINTS}")
    masks = []
    for n in range(inst.n_min + 1, min(inst.n_max - 1, support.size) + 1):
        for chosen in itertools.combinations(support, n):
            mask = np.zeros(inst.num_points, dtype=bool)
            mask[list(chosen)] = True
            masks.append(mask)
    return masks


def _mask_weight(inst: TinyInstance, mask: np.ndarray) -> float:
    rep = np.where(mask, inst.r, 1.0 - inst.r)
    disc = np.where(mask, inst.c_tilde, 1.0)
    return float(np.prod(rep) * np.prod(disc))


def exact_posterior(inst: TinyInstance, space) -> np.ndarray:
    """Marginal P(point selected) from the full distribution over ``space``."""
    if not space:
        raise ValueError("empty sample space")
    weights = np.array([_mask_weight(inst, mask) for mask in space])
    z = weights.sum()
    if z <= 0.0:
        raise ValueError("distribution has zero mass")
    stacked = np.array(space, dtype=float)
    return (weights @ stacked) / z


def log_likelihood_of_mask(inst: TinyInstance, mask: np.ndarray) -> float:
    """log of the mask's unnormalized weight: the latent log-likelihood."""
    terms = np.where(mask, np.log(inst.r) + np.log(inst.c_tilde), np.log1p(-inst.r))
    return float(terms.sum())


def exact_expectation(inst: TinyInstance, space) -> float:
    """Expectation of the latent log-likelihood under the exact distribution."""
    if not space:
        raise ValueError("empty sample space")
    weights = np.array([_mask_weight(inst, mask) for mask in space])
    z = weights.sum()
    if z <= 0.0:
        raise ValueError("distribution has zero mass")
    values = np.array([log_likelihood_of_mask(inst, mask) for mask in space])
    return float((weights / z) @ values)
