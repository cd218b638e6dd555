"""Configuration dataclasses, the key = value config-file parser, and presets."""

from __future__ import annotations

import math
import re
import typing
from dataclasses import dataclass, field, fields

from .simulate import ILLUMINATION_KINDS, VIEWPOINT_RANGES


@dataclass(frozen=True)
class PropertyConfig:
    """Hyperparameters of the three point properties.

    ``rad`` is the Chebyshev suppression radius in pixels, (``n_min``,
    ``n_max``) the exclusive bounds on the point count (so n_max >= n_min + 2),
    ``m_p``/``m_n`` the positive/negative similarity margins, ``neg_weight``
    the negative-pair weight, ``alpha`` the discriminability sharpness.
    """

    rad: int = 4
    n_min: int = 5
    n_max: int = 30
    m_p: float = 1.0
    m_n: float = 0.2
    neg_weight: float | None = None  # defaults to 10 / n_max
    alpha: float = 1.0

    def __post_init__(self):
        if self.neg_weight is None:
            object.__setattr__(self, "neg_weight", 10.0 / self.n_max)
        _require_finite(self)
        if self.rad < 1:
            raise ValueError(f"rad must be >= 1, got {self.rad}")
        if not 0 <= self.n_min < self.n_max - 1:
            raise ValueError(f"need 0 <= n_min < n_max - 1 so the exclusive window (n_min, n_max) "
                             f"holds a count, got n_min={self.n_min} n_max={self.n_max}")
        if not -1.0 <= self.m_n < self.m_p <= 1.0:
            raise ValueError(f"need -1 <= m_n < m_p <= 1, got m_n={self.m_n} m_p={self.m_p}")
        if self.neg_weight < 0:
            raise ValueError(f"neg_weight must be >= 0, got {self.neg_weight}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    @property
    def margin_max(self) -> float:
        """Largest reachable discriminability margin: m_p - neg_weight * m_n."""
        return self.m_p - self.neg_weight * self.m_n


def _require_finite(cfg) -> None:
    """ValueError naming the first float setting of ``cfg`` that is nan or infinite."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides the images themselves."""

    batch_scenes: int = 2
    transforms_per_scene: int = 10
    iterations: int = 200
    properties: PropertyConfig = field(default_factory=PropertyConfig)
    descriptor_dim: int = 16
    image_height: int = 64  # both multiples of 4, >= 8
    image_width: int = 64
    illumination: str = "illum_mild"
    viewpoint: str = "viewpoint_medium"
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        if self.batch_scenes < 1:
            raise ValueError(f"batch_scenes must be >= 1, got {self.batch_scenes}")
        if self.transforms_per_scene < 2:
            raise ValueError(
                f"transforms_per_scene must be >= 2, got {self.transforms_per_scene}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.descriptor_dim < 2:
            raise ValueError(f"descriptor_dim must be >= 2, got {self.descriptor_dim}")
        if self.illumination not in ILLUMINATION_KINDS:
            raise ValueError(f"illumination must be one of {tuple(ILLUMINATION_KINDS)}")
        if self.viewpoint not in VIEWPOINT_RANGES:
            raise ValueError(f"viewpoint must be one of {tuple(VIEWPOINT_RANGES)}")
        h, w = self.image_height, self.image_width
        if h % 4 != 0 or w % 4 != 0 or h < 8 or w < 8:
            raise ValueError(f"image_height and image_width must be multiples of 4 and >= 8, "
                             f"got {h}x{w}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EvalConfig:
    """Inference and metric settings shared by eval and visualize."""

    prob_threshold: float = 0.5
    max_points: int = 1000
    epsilon: float = 3.0
    ransac_iters: int = 2000
    ransac_threshold: float = 3.0
    pairs_per_image: int = 1

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 < self.prob_threshold < 1.0:
            raise ValueError(f"prob_threshold must be in (0, 1), got {self.prob_threshold}")
        if self.max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {self.max_points}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.ransac_iters < 1:
            raise ValueError(f"ransac_iters must be >= 1, got {self.ransac_iters}")
        if self.ransac_threshold <= 0:
            raise ValueError(f"ransac_threshold must be > 0, got {self.ransac_threshold}")
        if self.pairs_per_image < 1:
            raise ValueError(f"pairs_per_image must be >= 1, got {self.pairs_per_image}")


@dataclass(frozen=True)
class RunConfig:
    """Full command configuration: training, properties, simulation, eval, paths."""

    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    images_dir: str | None = None
    output_dir: str = "out"
    checkpoint: str | None = None
    pairs_file: str | None = None


# mirrors of the three published training regimes, at their descriptor lengths
PRESETS = {
    "pn-i": {"simulate.illumination": "illum_full", "simulate.viewpoint": "viewpoint_medium",
             "train.descriptor_dim": "64"},
    "pn-v": {"simulate.illumination": "illum_mild", "simulate.viewpoint": "viewpoint_full",
             "train.descriptor_dim": "64"},
    "pn-full": {"simulate.illumination": "illum_full", "simulate.viewpoint": "viewpoint_full",
                "train.descriptor_dim": "128"},
}

# each config key is a dataclass field under its class's section, except the
# fields moved to another section
_SECTIONS = {PropertyConfig: "properties", TrainConfig: "train", EvalConfig: "eval",
             RunConfig: "paths"}
_MOVED = {"illumination": "simulate", "viewpoint": "simulate"}
# the annotations a key can have, ``X | None`` cast as X
_CASTERS = {kind: caster for caster in (int, float, str) for kind in (caster, caster | None)}

# dotted key -> (caster, dataclass, field name)
_SCHEMA = {
    f"{_MOVED.get(name, section)}.{name}": (_CASTERS[kind], cls, name)
    for cls, section in _SECTIONS.items()
    for name, kind in typing.get_type_hints(cls).items()
    if kind in _CASTERS
}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines grouped under ``[section]`` headers.

    A ``#`` at the start of a line or after whitespace starts a comment; any
    other ``#`` belongs to the value. Returns a dict of dotted keys; unknown
    keys, a key set twice or malformed lines raise ValueError before any
    work starts.
    """
    values = {}
    set_on = {}  # dotted key -> the line that set it
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.sub(r"(?:^|\s)#.*", "", raw, count=1).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        if section is None:
            raise ValueError(f"line {lineno}: config key {key.strip()!r} before any "
                             f"[section] header")
        dotted = f"{section}.{key.strip()}"
        if dotted not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {dotted!r}")
        if dotted in set_on:
            raise ValueError(f"line {lineno}: config key {dotted!r} already set "
                             f"on line {set_on[dotted]}")
        set_on[dotted] = lineno
        caster = _SCHEMA[dotted][0]
        try:
            values[dotted] = caster(val.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {dotted!r}: {exc}") from exc
    return values


def build_run_config(values: dict, preset: str | None = None) -> RunConfig:
    """Assemble and validate a RunConfig from dotted key/value overrides.

    Explicit ``values`` beat the preset's. Each dataclass is built from the
    keys given for it only, so every other field keeps its declared default.
    """
    merged = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        for key, val in PRESETS[preset].items():
            merged[key] = _SCHEMA[key][0](val)
    merged.update(values)
    unknown = sorted(set(merged) - set(_SCHEMA))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    given = {cls: {} for cls in _SECTIONS}
    for key, val in merged.items():
        _, cls, name = _SCHEMA[key]
        given[cls][name] = val
    return RunConfig(
        train=TrainConfig(properties=PropertyConfig(**given[PropertyConfig]),
                          **given[TrainConfig]),
        eval=EvalConfig(**given[EvalConfig]),
        **given[RunConfig],
    )
