"""Scene simulation: photometric transforms, random homographies, warping.

Images are (H, W) grayscale float arrays in [0, 1]. A scene is one canonical
image; a training sample is a set of J transformed views, each produced by
warping under a random homography and then by 1-3 photometric transforms,
each drawn and applied in one pass (``photometric``). Correspondence
between the canonical pixel grid and every view is tracked alongside, with
validity masks for points that leave the frame.

Every sampler takes an explicit numpy Generator, so all randomness is
reproducible from seed streams derived per (seed, scene id, view index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# level -> the photometric kinds it draws from, uniformly
ILLUMINATION_KINDS = {
    "illum_full": ("blur", "contrast", "invert", "salt_pepper", "shadow"),
    "illum_mild": ("blur", "contrast", "shadow"),
}

# (max rotation deg, corner perturbation as a fraction of the image diagonal)
VIEWPOINT_RANGES = {
    "viewpoint_medium": (45.0, 0.10),
    "viewpoint_full": (180.0, 0.18),
}

_W_COORD_EPS = 1e-9


def photometric(image: np.ndarray, rng: np.random.Generator, level: str) -> np.ndarray:
    """Draw 1..3 photometric transforms of ``level`` and apply each in turn to
    an (H, W) image, clipping to [0, 1] after each.

    Each transform draws its kind and then its parameters from ``rng`` and is
    applied before the next is drawn. Applying takes nothing from ``rng``, so
    the stream is the one of drawing the whole list first.
    """
    if level not in ILLUMINATION_KINDS:
        raise ValueError(f"unknown illumination level {level!r}")
    kinds = ILLUMINATION_KINDS[level]
    img = np.asarray(image, dtype=float).copy()
    for _ in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "blur":
            mode = int(rng.integers(3))
            radius = int(rng.integers(1, 4))
            if mode == 0:
                img = gaussian_blur(img, 0.5 * radius)
            elif mode == 1:
                img = box_blur(img, 2 * radius + 1)
            else:
                img = median_blur(img, 2 * radius + 1)
        elif kind == "contrast":
            img = 0.5 + (img - 0.5) * (1.0 + rng.uniform(-0.5, 0.5))
        elif kind == "invert":
            img = 1.0 - img
        elif kind == "salt_pepper":
            _salt_pepper(img, rng)
        elif kind == "shadow":
            _shadow(img, rng)
        np.clip(img, 0.0, 1.0, out=img)
    return img


def _salt_pepper(img: np.ndarray, rng: np.random.Generator) -> None:
    """Set a random 0.2-2% of an (H, W) image's pixels to 0 or 1, in place.

    ``rng`` gives the fraction and the seed of the pixels' own stream.
    """
    fraction = rng.uniform(0.002, 0.02)
    noise = np.random.default_rng(int(rng.integers(2**31)))
    hit = noise.random(img.shape) < fraction
    salt = noise.random(img.shape) < 0.5
    img[hit & salt] = 1.0
    img[hit & ~salt] = 0.0


def _shadow(img: np.ndarray, rng: np.random.Generator) -> None:
    """Darken 1-3 random convex polygons of an (H, W) image in place.

    Vertices are in relative [0, 1]^2 coordinates, rounded to 6 decimals;
    each polygon scales the pixels inside it by 1 - attenuation, with
    attenuation in [0.3, 0.7].
    """
    h, w = img.shape
    xs, ys = np.meshgrid(np.arange(w) / max(w - 1, 1), np.arange(h) / max(h - 1, 1))
    for _ in range(int(rng.integers(1, 4))):
        center = rng.uniform(0.2, 0.8, size=2)
        radius = rng.uniform(0.1, 0.3)
        pts = center + rng.uniform(-radius, radius, size=(int(rng.integers(4, 8)), 2))
        inside = _points_in_convex_polygon(xs, ys, np.round(_convex_hull(pts), 6))
        img[inside] *= 1.0 - rng.uniform(0.3, 0.7)


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, no repeated endpoint."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return np.array(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _points_in_convex_polygon(xs, ys, vertices):
    """Vectorized membership test; vertices counter-clockwise."""
    inside = np.ones(xs.shape, dtype=bool)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        cross = (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0)
        inside &= cross >= 0
    return inside


# ---------------------------------------------------------------------------
# blur kernels
#
# Each is separable or a rank filter with edge-replicated ("nearest")
# borders, and each matches scipy.ndimage's filter of the same name bit for
# bit, so the simulated views do not depend on which of the two made them.
# ---------------------------------------------------------------------------


def _edge_pad(img: np.ndarray, r: int) -> np.ndarray:
    """``np.pad(img, r, mode="edge")`` for an (H, W) image, by slice copies."""
    h, w = img.shape
    out = np.empty((h + 2 * r, w + 2 * r))
    middle = out[r:r + h]
    middle[:, r:r + w] = img
    middle[:, :r] = img[:, :1]
    middle[:, r + w:] = img[:, -1:]
    out[:r] = middle[0]
    out[r + h:] = middle[-1]
    return out


@lru_cache(maxsize=8)  # the blur transform uses 3 sigmas
def _gaussian_weights(sigma: float) -> tuple:
    """Normalised taps exp(-x^2 / (2 sigma^2)) for x in -r..r, r = int(4 sigma + 0.5)."""
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return tuple((phi / phi.sum()).tolist())


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of an (H, W) image: along axis 0, then along axis 1.

    The kernel is symmetric, so each output is the centre tap times its
    pixel plus, from the farthest pair of taps inwards, (left + right) times
    the pair's weight: that order of additions is the one that makes the
    result exact against the reference filter.
    """
    weights = _gaussian_weights(sigma)
    r = len(weights) // 2
    out = _edge_pad(img, r)
    for axis in (0, 1):
        n = out.shape[axis] - 2 * r

        def tap(k):
            return out[(slice(None),) * axis + (slice(r + k, r + k + n),)]

        acc = np.multiply(tap(0), weights[r])
        pair = np.empty_like(acc)
        for j in range(r, 0, -1):
            np.add(tap(-j), tap(j), out=pair)
            pair *= weights[r - j]
            acc += pair
        out = acc
    return out


def box_blur(img: np.ndarray, size: int) -> np.ndarray:
    """Mean over a size x size window (size odd) of an (H, W) image.

    Along each axis: a running sum, the first window added left to right
    from +0.0 and each next one as the previous plus (entering - leaving),
    divided by ``size`` only at the end. A running mean rounds differently.
    """
    r = size // 2
    out = _edge_pad(img, r)
    for axis in (0, 1):
        n = out.shape[axis] - 2 * r

        def cut(arr, start, stop):
            return arr[(slice(None),) * axis + (slice(start, stop),)]

        sums = np.empty(out.shape[:axis] + (n,) + out.shape[axis + 1:])
        first = cut(sums, 0, 1)
        np.add(cut(out, 0, 1), 0.0, out=first)
        for k in range(1, size):
            first += cut(out, k, k + 1)
        np.subtract(cut(out, size, None), cut(out, 0, n - 1), out=cut(sums, 1, None))
        np.cumsum(sums, axis=axis, out=sums)
        sums /= size
        out = sums
    return out


_MEDIAN_BAND_CELLS = 1 << 18  # window cells copied at once: 2 MiB of float64


def median_blur(img: np.ndarray, size: int) -> np.ndarray:
    """Median over a size x size window (size odd) of an (H, W) image.

    The middle order statistic of each window, picked by ``np.partition``
    over bands of output rows so that the window copy stays small. Any
    selection returns the same value, except that a zero median of a window
    holding both +0.0 and -0.0 can come out with either sign.
    """
    h, w = img.shape
    cells = size * size
    rank = cells // 2
    windows = sliding_window_view(_edge_pad(img, size // 2), (size, size))
    out = np.empty((h, w))
    rows = max(1, _MEDIAN_BAND_CELLS // (w * cells))
    buf = np.empty((min(rows, h), w, size, size))
    for top in range(0, h, rows):
        band = buf[:min(rows, h - top)]
        band[...] = windows[top:top + len(band)]
        flat = band.reshape(-1, cells)
        flat.partition(rank, axis=1)
        out[top:top + len(band)] = flat[:, rank].reshape(-1, w)
    return out


# ---------------------------------------------------------------------------
# homographies
# ---------------------------------------------------------------------------


def homography_from_corners(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Exact homography from 4 point correspondences, normalized to h33 = 1."""
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i in range(4):
        x, y = src[i]
        u, v = dst[i]
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i] = u
        b[2 * i + 1] = v
    h = np.linalg.solve(a, b)
    return np.append(h, 1.0).reshape(3, 3)


def decomposed_rotation_deg(h: np.ndarray, size) -> float:
    """Rotation angle of the map's Jacobian at the image center (polar part)."""
    height, width = size
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    a = h[:2, :2]
    t = h[:2, 2]
    q = h[2, :2]
    s = h[2, 2]
    denom = q @ (cx, cy) + s
    num = a @ (cx, cy) + t
    jac = (a * denom - np.outer(num, q)) / denom**2
    u, _, vt = np.linalg.svd(jac)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        return 180.0
    return float(abs(np.degrees(np.arctan2(rot[1, 0], rot[0, 0]))))


def _is_convex_quad(corners: np.ndarray) -> bool:
    signs = []
    for i in range(4):
        p0, p1, p2 = corners[i], corners[(i + 1) % 4], corners[(i + 2) % 4]
        cross = (p1[0] - p0[0]) * (p2[1] - p1[1]) - (p1[1] - p0[1]) * (p2[0] - p1[0])
        signs.append(np.sign(cross))
    return abs(sum(signs)) == 4


def sample_homography(
    rng: np.random.Generator,
    max_rotation_deg: float,
    perturb: float,
    size=(480, 640),
) -> np.ndarray:
    """Random homography: rotation about the image center plus independent
    corner displacements bounded by ``perturb`` of the image diagonal.

    Resamples on fold-over, near-singularity, or a decomposed rotation at or
    above the cap; fails after 100 rejections. A side below 2 pixels has no
    4 distinct corners to move, so it raises ValueError.
    """
    if not 0 < max_rotation_deg <= 180:
        raise ValueError(f"max_rotation_deg must be in (0, 180], got {max_rotation_deg}")
    if not 0 <= perturb <= 0.3:
        raise ValueError(f"perturb must be in [0, 0.3], got {perturb}")
    height, width = size
    if height < 2 or width < 2:
        raise ValueError(f"image size {height}x{width} has a side below 2 pixels")
    diag = np.hypot(height, width)
    src = np.array([[0.0, 0.0], [width - 1.0, 0.0], [width - 1.0, height - 1.0],
                    [0.0, height - 1.0]])
    center = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    bound = perturb * diag / np.sqrt(2.0)
    for _ in range(100):
        theta = np.radians(rng.uniform(-0.75 * max_rotation_deg, 0.75 * max_rotation_deg))
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        dst = (src - center) @ rot.T + center
        dst = dst + rng.uniform(-bound, bound, size=(4, 2))
        if not _is_convex_quad(dst):
            continue
        h = homography_from_corners(src, dst)
        if abs(np.linalg.det(h)) <= 1e-6:
            continue
        if decomposed_rotation_deg(h, size) >= max_rotation_deg:
            continue
        return h
    raise RuntimeError("homography sampling failed 100 times; ranges too aggressive")


def sample_homography_for_level(rng, level: str, size) -> np.ndarray:
    if level not in VIEWPOINT_RANGES:
        raise ValueError(f"unknown viewpoint level {level!r}")
    max_rot, perturb = VIEWPOINT_RANGES[level]
    return sample_homography(rng, max_rot, perturb, size)


def project_points(points, h: np.ndarray) -> np.ndarray:
    """(n, 2) image of (x, y) points under the homography ``h``; a point
    whose homogeneous w has |w| < ``_W_COORD_EPS`` goes to infinity: nan."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    mapped = np.hstack([pts, np.ones((pts.shape[0], 1))]) @ h.T
    w = mapped[:, 2]
    out = np.empty_like(pts)
    with np.errstate(divide="ignore", invalid="ignore"):  # the w ~ 0 rows are overwritten
        np.divide(mapped[:, 0], w, out=out[:, 0])
        np.divide(mapped[:, 1], w, out=out[:, 1])
    out[np.abs(w) < _W_COORD_EPS] = np.nan
    return out


def map_points(points, h: np.ndarray, bounds):
    """``project_points``, and whether each image lies inside ``bounds``, a
    (width, height): in [0, width - 1] x [0, height - 1], never at infinity."""
    out = project_points(points, h)
    width, height = bounds
    valid = (out[:, 0] >= 0) & (out[:, 0] <= width - 1) \
        & (out[:, 1] >= 0) & (out[:, 1] <= height - 1)
    return out, valid


def warp_image(image: np.ndarray, h: np.ndarray):
    """Inverse-mapped bilinear warp of an (H, W) image; returns (warped,
    validity mask).

    Output pixels whose source falls outside the input are zero and masked
    invalid.
    """
    img = np.asarray(image, dtype=float)
    height, width = img.shape
    h_inv = np.linalg.inv(h)
    cols, rows = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    src, valid = map_points(np.stack([cols.ravel(), rows.ravel()], axis=1), h_inv,
                            (width, height))
    sx = src[:, 0].reshape(height, width)
    sy = src[:, 1].reshape(height, width)
    mask = valid.reshape(height, width)
    sx = np.where(mask, sx, 0.0)
    sy = np.where(mask, sy, 0.0)
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    tx = sx - x0
    ty = sy - y0
    top = img[y0, x0] * (1 - tx) + img[y0, x1] * tx
    bottom = img[y1, x0] * (1 - tx) + img[y1, x1] * tx
    warped = top * (1 - ty) + bottom * ty
    warped[~mask] = 0.0
    return warped, mask


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------


@dataclass
class SceneBatch:
    """J transformed views of one canonical image and their correspondence.

    ``map_rows``/``map_cols`` give, for every canonical pixel, the nearest
    pixel of each view; ``valid`` marks points that stay inside the view and
    land on warped content.
    """

    images: list
    map_rows: np.ndarray  # (J, H, W) int
    map_cols: np.ndarray  # (J, H, W) int
    valid: np.ndarray  # (J, H, W) bool
    outputs: list | None = field(default=None, repr=False)

    @property
    def num_views(self) -> int:
        return len(self.images)


def view_rng(seed: int, scene_id: int, view: int) -> np.random.Generator:
    """Independent stream per (seed, scene id, view index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, scene_id, view]))


def _simulate_view(img, rng, illumination, viewpoint):
    """Draw a homography, warp ``img`` by it, then draw and apply photometric
    transforms. Returns (view, homography, warp validity mask)."""
    hom = sample_homography_for_level(rng, viewpoint, img.shape)
    warped, warp_mask = warp_image(img, hom)
    return photometric(warped, rng, illumination), hom, warp_mask


def make_scene(
    image: np.ndarray,
    num_views: int,
    seed: int,
    scene_id: int,
    illumination: str = "illum_mild",
    viewpoint: str = "viewpoint_medium",
) -> SceneBatch:
    """Simulate J views of one canonical (H, W) image with tracked correspondence.

    Correspondences landing near a view's frame stay valid: label-free frame
    bands would give the detector an unsupervised region to dump probability
    mass into, which measurably destabilizes training.
    """
    img = np.asarray(image, dtype=float)
    height, width = img.shape
    cols, rows = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    grid = np.stack([cols.ravel(), rows.ravel()], axis=1)

    images = []
    map_rows = np.zeros((num_views, height, width), dtype=int)
    map_cols = np.zeros((num_views, height, width), dtype=int)
    valid = np.zeros((num_views, height, width), dtype=bool)
    for j in range(num_views):
        view, hom, warp_mask = _simulate_view(img, view_rng(seed, scene_id, j),
                                              illumination, viewpoint)
        images.append(view)
        mapped, ok = map_points(grid, hom, (width, height))
        cc = np.clip(np.rint(np.where(ok, mapped[:, 0], 0.0)).astype(int), 0, width - 1)
        rr = np.clip(np.rint(np.where(ok, mapped[:, 1], 0.0)).astype(int), 0, height - 1)
        ok = ok & warp_mask[rr, cc]
        map_rows[j] = rr.reshape(height, width)
        map_cols[j] = cc.reshape(height, width)
        valid[j] = ok.reshape(height, width)
    return SceneBatch(images=images, map_rows=map_rows, map_cols=map_cols, valid=valid)


def make_pair(
    image: np.ndarray,
    rng: np.random.Generator,
    illumination: str = "illum_mild",
    viewpoint: str = "viewpoint_medium",
):
    """One evaluation pair from an (H, W) image: (original, transformed view,
    ground-truth H)."""
    img = np.asarray(image, dtype=float)
    transformed, hom, _ = _simulate_view(img, rng, illumination, viewpoint)
    return img, transformed, hom
