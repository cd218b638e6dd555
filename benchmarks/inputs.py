"""Seeded synthetic inputs for the benchmark workloads.

Every input is a pure function of the workload seed, so the same seed gives
the same arrays in every process. Scenes mix checkerboards, polygons and
blobs, the structure the training tests use; the shape count grows with the
image area so a 240x320 scene has the same shape density as a 64x64 one.
The generators are the benchmark's own: the program under test only
receives the arrays.
"""

from __future__ import annotations

import numpy as np

REFERENCE_AREA = 64 * 64


def _shape_count(rng, shape, lo, hi):
    scale = shape[0] * shape[1] / REFERENCE_AREA
    return max(1, int(round(int(rng.integers(lo, hi)) * scale)))


def checkerboard_scene(rng, shape):
    period = int(rng.integers(8, 17))
    phase_r, phase_c = rng.integers(0, period, size=2)
    rows, cols = np.indices(shape)
    img = (((rows + phase_r) // period + (cols + phase_c) // period) % 2).astype(float)
    lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
    return lo + (hi - lo) * img


def polygon_scene(rng, shape):
    height, width = shape
    img = np.full(shape, float(rng.uniform(0.3, 0.7)))
    for _ in range(_shape_count(rng, shape, 3, 7)):
        cx = rng.uniform(8, width - 8)
        cy = rng.uniform(8, height - 8)
        radius = rng.uniform(5, 14)
        k = int(rng.integers(3, 7))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
        verts = np.stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)], axis=1)
        # rasterise inside the bounding box only; the polygon never leaves it
        r0, r1 = max(int(cy - radius), 0), min(int(cy + radius) + 2, height)
        c0, c1 = max(int(cx - radius), 0), min(int(cx + radius) + 2, width)
        rows, cols = np.mgrid[r0:r1, c0:c1]
        inside = np.ones(rows.shape, dtype=bool)
        for i in range(k):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % k]
            inside &= (x1 - x0) * (rows - y0) - (y1 - y0) * (cols - x0) >= 0
        img[r0:r1, c0:c1][inside] = rng.uniform(0.0, 1.0)
    return img


def blob_scene(rng, shape):
    height, width = shape
    img = np.full(shape, float(rng.uniform(0.2, 0.5)))
    for _ in range(_shape_count(rng, shape, 4, 9)):
        cx = rng.uniform(6, width - 6)
        cy = rng.uniform(6, height - 6)
        sigma = rng.uniform(2.0, 6.0)
        amp = rng.uniform(-0.6, 0.8)
        # a Gaussian is below 1e-10 of its peak beyond 7 sigma
        reach = int(np.ceil(7 * sigma))
        r0, r1 = max(int(cy) - reach, 0), min(int(cy) + reach + 1, height)
        c0, c1 = max(int(cx) - reach, 0), min(int(cx) + reach + 1, width)
        rows, cols = np.mgrid[r0:r1, c0:c1]
        img[r0:r1, c0:c1] += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * sigma**2))
    return np.clip(img, 0.0, 1.0)


def mosaic_scene(rng, shape):
    """Blobs, then checkerboard patches, then polygons, on one canvas.

    Every large image mixes the three structures, so the per-image cost of
    matching and RANSAC varies less than across single-family scenes.
    """
    height, width = shape
    img = blob_scene(rng, shape)
    for _ in range(_shape_count(rng, shape, 1, 3)):
        size_r, size_c = rng.integers(16, 49, size=2)
        r0 = int(rng.integers(0, height - size_r))
        c0 = int(rng.integers(0, width - size_c))
        img[r0:r0 + size_r, c0:c0 + size_c] = checkerboard_scene(rng, (size_r, size_c))
    polygons = polygon_scene(rng, shape)
    # polygon_scene fills its background with one value; keep only the shapes
    shapes = polygons != polygons[0, 0]
    img[shapes] = polygons[shapes]
    return img


def shape_scenes(seed, count, shape=(64, 64)):
    """``count`` scenes of ``shape`` cycling checkerboard, polygon, blob."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE7E]))
    makers = (checkerboard_scene, polygon_scene, blob_scene)
    return [makers[i % 3](rng, tuple(shape)) for i in range(count)]


def eval_pairs(seed, count, shape, illumination, viewpoint, make_pair):
    """``count`` simulated self-pairs ``(image, warped view, H)`` of mosaics.

    ``make_pair`` is the program's pair simulator, the one ``pointprops
    eval --images`` uses; it draws from a generator seeded here.
    """
    scene_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A1C]))
    pairs = []
    for idx in range(count):
        img = mosaic_scene(scene_rng, tuple(shape))
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx, 0xE7A1]))
        pairs.append(make_pair(img, rng, illumination, viewpoint))
    return pairs
