"""Library entry point: train a detector on images, then detect points.

``PointPropsDetector`` takes its hyperparameters as constructor arguments,
keeps learned state in trailing-underscore attributes, and validates inputs
up front.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from . import em, evaluate, model
from .config import EvalConfig, PropertyConfig, TrainConfig


class NotFittedError(RuntimeError):
    pass


def as_float_image(image, name: str = "image") -> np.ndarray:
    """Validate one image: 2-D or 3-D float array with values in [0, 1]."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2-D or 3-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"{name} values must lie in [0, 1]")
    return arr


class PointPropsDetector:
    """Joint interest-point detector/descriptor trained by property EM.

    ``fit`` trains on a list of grayscale scene images; ``detect``/``predict``
    extract sparse points with unit descriptors from new (H, W) or (H, W, 1)
    images. Each hyperparameter defaults to its field in ``PropertyConfig``,
    ``TrainConfig`` or ``EvalConfig``.
    """

    def __init__(
        self,
        descriptor_dim: int = TrainConfig.descriptor_dim,
        rad: int = PropertyConfig.rad,
        n_min: int = PropertyConfig.n_min,
        n_max: int = PropertyConfig.n_max,
        m_p: float = PropertyConfig.m_p,
        m_n: float = PropertyConfig.m_n,
        neg_weight: float | None = PropertyConfig.neg_weight,
        alpha: float = PropertyConfig.alpha,
        batch_scenes: int = TrainConfig.batch_scenes,
        transforms_per_scene: int = TrainConfig.transforms_per_scene,
        iterations: int = TrainConfig.iterations,
        learning_rate: float = TrainConfig.learning_rate,
        illumination: str = TrainConfig.illumination,
        viewpoint: str = TrainConfig.viewpoint,
        prob_threshold: float = EvalConfig.prob_threshold,
        max_points: int = EvalConfig.max_points,
        seed: int = TrainConfig.seed,
    ):
        self.descriptor_dim = descriptor_dim
        self.rad = rad
        self.n_min = n_min
        self.n_max = n_max
        self.m_p = m_p
        self.m_n = m_n
        self.neg_weight = neg_weight
        self.alpha = alpha
        self.batch_scenes = batch_scenes
        self.transforms_per_scene = transforms_per_scene
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.illumination = illumination
        self.viewpoint = viewpoint
        self.prob_threshold = prob_threshold
        self.max_points = max_points
        self.seed = seed

    def _settings(self, cls) -> dict:
        """The hyperparameters named like a field of config dataclass ``cls``;
        every other field of ``cls`` keeps its default."""
        names = {f.name for f in fields(cls)}
        return {name: value for name, value in vars(self).items() if name in names}

    def _train_config(self, image_height, image_width) -> TrainConfig:
        return TrainConfig(properties=PropertyConfig(**self._settings(PropertyConfig)),
                           image_height=image_height, image_width=image_width,
                           **self._settings(TrainConfig))

    # -- fitting and inference --------------------------------------------
    def fit(self, X, y=None) -> "PointPropsDetector":
        """Train on a list of grayscale scene images of one common size."""
        images = [as_float_image(img, f"X[{i}]") for i, img in enumerate(X)]
        if not images:
            raise ValueError("need at least one training image")
        shapes = {img.shape for img in images}
        if len(shapes) != 1:
            raise ValueError(f"training images must share one shape, got {shapes}")
        first = images[0]
        if first.ndim != 2:
            raise ValueError("training images must be grayscale (2-D)")
        if first.shape[0] % 4 or first.shape[1] % 4:
            raise ValueError("training image dimensions must be multiples of 4")
        result = em.train(images, self._train_config(*first.shape))
        self.params_ = result.params
        self.train_log_ = result.log_rows
        return self

    def _check_fitted(self):
        if not hasattr(self, "params_"):
            raise NotFittedError("call fit or load_checkpoint before detecting")

    def detect(self, image) -> evaluate.PointSet:
        """Extract interest points with descriptors from one image, computed
        as ``pointprops eval`` computes them, under the same one-thread BLAS
        (``workers.BLAS_PINNED``), so both give the same points."""
        self._check_fitted()
        cfg = EvalConfig(**self._settings(EvalConfig))
        return evaluate.detect_points(self.params_, as_float_image(image),
                                      cfg.prob_threshold, self.rad, cfg.max_points)

    def predict(self, X) -> list:
        """Detect on a list of images; returns one PointSet per image."""
        return [self.detect(img) for img in X]

    # -- persistence -------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        self._check_fitted()
        model.save_checkpoint(path, self.params_)

    def load_checkpoint(self, path) -> "PointPropsDetector":
        self.params_ = model.load_checkpoint(path)
        self.descriptor_dim = self.params_.descriptor_dim
        return self
