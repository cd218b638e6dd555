"""Brute-force reference computations over explicitly enumerated mask spaces.

Everything here exists to validate the closed-form training path on tiny
instances. A space is enumerated in full as the rows of one (M, n) boolean
matrix, one row per feasible mask; posteriors and expectations are row
reductions over it, so every mask is weighed on its own, with no closed
form shared with ``em``. A hard cap of 20 points bounds the enumeration:
at the cap a space holds up to 2^20 rows, and the posterior's float copy
of 2^20 rows times 20 float64 values is 168 MB.
"""

from __future__ import annotations

import itertools
import math
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
        if self.c_tilde.shape != self.r.shape:
            raise ValueError(f"c_tilde has shape {self.c_tilde.shape}; "
                             f"r has shape {self.r.shape}")
        if self.num_points > MAX_POINTS:
            raise ValueError(f"instance has {self.num_points} points; cap is {MAX_POINTS}")
        if np.any(self.r <= 0.0) or np.any(self.r >= 1.0):
            raise ValueError("repeatability values must lie strictly inside (0, 1)")

    @property
    def num_points(self) -> int:
        return self.r.size


def enumerate_reduced_space(inst: TinyInstance) -> np.ndarray:
    """All masks over the instance's points (its candidates) with a feasible
    point count (strict bounds).

    Returns an (M, num_points) bool matrix whose rows run by ascending count,
    then in ``itertools.combinations`` order of the points within a count.
    """
    m = inst.num_points
    if m > MAX_POINTS:
        raise ValueError(f"instance of {m} points exceeds the cap of {MAX_POINTS}")
    counts = range(inst.n_min + 1, min(inst.n_max - 1, m) + 1)
    sizes = [math.comb(m, n) for n in counts]
    space = np.zeros((sum(sizes), m), dtype=bool)
    start = 0
    for n, size in zip(counts, sizes):
        chosen = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(m), n)),
            dtype=np.intp, count=size * n,
        ).reshape(size, n)
        space[np.arange(start, start + size)[:, None], chosen] = True
        start += size
    return space


def _weights(inst: TinyInstance, space: np.ndarray):
    """Unnormalized weight of every row of ``space`` and their sum."""
    if len(space) == 0:
        raise ValueError("empty sample space")
    weights = (np.prod(np.where(space, inst.r, 1.0 - inst.r), axis=1)
               * np.prod(np.where(space, inst.c_tilde, 1.0), axis=1))
    z = weights.sum()
    if z <= 0.0:
        raise ValueError("distribution has zero mass")
    return weights, z


def exact_posterior(inst: TinyInstance, space) -> np.ndarray:
    """Marginal P(point selected) from the full distribution over ``space``."""
    space = np.asarray(space, dtype=bool)
    weights, z = _weights(inst, space)
    return (weights @ space.astype(float)) / z


def exact_expectation(inst: TinyInstance, space) -> float:
    """Expectation of the latent log-likelihood under the exact distribution.

    A mask's latent log-likelihood is the log of its unnormalized weight.
    """
    space = np.asarray(space, dtype=bool)
    weights, z = _weights(inst, space)
    values = np.where(space, np.log(inst.r) + np.log(inst.c_tilde),
                      np.log1p(-inst.r)).sum(axis=1)
    return float((weights / z) @ values)
