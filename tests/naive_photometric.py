"""Two-phase photometric sampler used as a test reference.

This is the record layer that ``simulate.photometric`` folds into one pass:
first the whole list of 1..3 transforms is drawn as records of sorted
parameter tuples, then the records are applied in order by dispatch on their
kind strings, clipping to [0, 1] after each. It borrows only the blur kernels
and the polygon geometry from the package, so the one-pass version can be
checked against it bit for bit, draws included.
"""

import numpy as np

from pointprops.simulate import (_convex_hull, _points_in_convex_polygon, box_blur,
                                 gaussian_blur, median_blur)

KINDS = {
    "illum_full": ("blur", "channel_shuffle", "contrast", "grayscale_mix", "invert",
                   "salt_pepper", "shadow"),
    "illum_mild": ("blur", "contrast", "shadow"),
}


def op(kind, **params):
    return kind, tuple(sorted(params.items()))


def sample(rng, level):
    """An ordered list of 1..3 (kind, params) records."""
    if level not in KINDS:
        raise ValueError(f"unknown illumination level {level!r}")
    kinds = KINDS[level]
    spec = []
    for _ in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "blur":
            spec.append(op("blur",
                           mode=("gaussian", "average", "median")[int(rng.integers(3))],
                           radius=int(rng.integers(1, 4))))
        elif kind == "channel_shuffle":
            spec.append(op("channel_shuffle", order=tuple(int(i) for i in rng.permutation(3))))
        elif kind == "contrast":
            spec.append(op("contrast", strength=float(rng.uniform(-0.5, 0.5))))
        elif kind == "grayscale_mix":
            spec.append(op("grayscale_mix", weight=float(rng.uniform(0.0, 1.0))))
        elif kind == "invert":
            spec.append(op("invert"))
        elif kind == "salt_pepper":
            spec.append(op("salt_pepper", fraction=float(rng.uniform(0.002, 0.02)),
                           seed=int(rng.integers(2**31))))
        elif kind == "shadow":
            spec.append(op("shadow", polygons=sample_shadow_polygons(rng)))
    return spec


def sample_shadow_polygons(rng):
    """1-3 convex dark polygons in relative [0,1]^2 coordinates."""
    polygons = []
    for _ in range(int(rng.integers(1, 4))):
        center = rng.uniform(0.2, 0.8, size=2)
        radius = rng.uniform(0.1, 0.3)
        pts = center + rng.uniform(-radius, radius, size=(int(rng.integers(4, 8)), 2))
        hull = _convex_hull(pts)
        attenuation = float(rng.uniform(0.3, 0.7))
        polygons.append((tuple(map(tuple, np.round(hull, 6).tolist())), attenuation))
    return tuple(polygons)


def apply(image, spec):
    """Apply the records in order to an (H, W) image; output stays in [0, 1]."""
    img = np.asarray(image, dtype=float).copy()
    for kind, params in spec:
        img = apply_one(img, kind, dict(params))
        np.clip(img, 0.0, 1.0, out=img)
    return img


def apply_one(img, kind, params):
    h, w = img.shape
    if kind == "blur":
        radius = params["radius"]
        if params["mode"] == "gaussian":
            return gaussian_blur(img, 0.5 * radius)
        if params["mode"] == "average":
            return box_blur(img, 2 * radius + 1)
        return median_blur(img, 2 * radius + 1)
    if kind in ("channel_shuffle", "grayscale_mix"):
        return img
    if kind == "contrast":
        return 0.5 + (img - 0.5) * (1.0 + params["strength"])
    if kind == "invert":
        return 1.0 - img
    if kind == "salt_pepper":
        rng = np.random.default_rng(params["seed"])
        hit = rng.random((h, w)) < params["fraction"]
        salt = rng.random((h, w)) < 0.5
        out = img.copy()
        out[hit & salt] = 1.0
        out[hit & ~salt] = 0.0
        return out
    if kind == "shadow":
        xs, ys = np.meshgrid(np.arange(w) / max(w - 1, 1), np.arange(h) / max(h - 1, 1))
        out = img.copy()
        for vertices, attenuation in params["polygons"]:
            out[_points_in_convex_polygon(xs, ys, vertices)] *= 1.0 - attenuation
        return out
    raise ValueError(f"unknown photometric kind {kind!r}")
