"""Interest-point extraction, matching, and the two benchmark metrics.

Point coordinates are (x, y) with x the column. The matching score and the
homography-correctness indicator follow the shared-viewpoint conventions:
denominators count only points whose ground-truth mapping stays inside the
other image, and a match is correct when the mapped point lands within
``epsilon`` pixels of its partner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .image_io import pad_to_multiple_of_4
from .properties import select_local_maxima
from .simulate import map_points, project_points


@dataclass
class PointSet:
    """Extracted points, best score first: (n, 2) xy and unit descriptors."""

    xy: np.ndarray
    descriptors: np.ndarray

    def __len__(self) -> int:
        return self.xy.shape[0]


@dataclass
class MatchSet:
    """One-to-one mutual nearest-neighbor matches between two point sets."""

    index_a: np.ndarray
    index_b: np.ndarray

    def __len__(self) -> int:
        return self.index_a.shape[0]


def extract_points(
    output: model.ModelOutput, prob_threshold: float, rad: int, max_points: int, shape
) -> PointSet:
    """Strict NMS, then probability threshold, then top-K by score, all on
    the map cropped to the image's (height, width) ``shape``.

    The map may run past ``shape`` at the bottom and right (an edge pad);
    the pad is cut off first, so it neither takes a top-K slot nor
    suppresses a maximum inside the image. Ties in score are broken by scan
    order (row-major), so extraction is deterministic.
    """
    height, width = shape
    prob = output.prob_map[:height, :width]
    rows, cols = np.nonzero(select_local_maxima(prob, rad) & (prob > prob_threshold))
    scores = prob[rows, cols]
    order = np.argsort(-scores, kind="stable")[:max_points]
    rows, cols = rows[order], cols[order]
    return PointSet(
        xy=np.stack([cols, rows], axis=1).astype(float),
        descriptors=output.describe(rows, cols),
    )


def detect_points(params, image, prob_threshold: float, rad: int, max_points: int) -> PointSet:
    """Points of one image: edge-pad to multiples of 4, tape-free forward,
    then ``extract_points`` inside the unpadded image."""
    padded, shape = pad_to_multiple_of_4(image)
    return extract_points(model.forward(params, padded, keep_cache=False),
                          prob_threshold, rad, max_points, shape)


def match_two_way(a: PointSet, b: PointSet) -> MatchSet:
    """Mutual nearest neighbors by descriptor similarity; ties pick the lowest index."""
    if len(a) == 0 or len(b) == 0:
        return MatchSet(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    sims = a.descriptors @ b.descriptors.T
    fwd = sims.argmax(axis=1)
    bwd = sims.argmax(axis=0)
    ia = np.flatnonzero(bwd[fwd] == np.arange(len(a)))
    return MatchSet(ia, fwd[ia])


def match_correctness(
    matches: MatchSet, a: PointSet, b: PointSet, h_gt: np.ndarray, epsilon: float
) -> np.ndarray:
    """True where the ground-truth-mapped point lies within epsilon of its
    partner; a point that ``h_gt`` sends to infinity is never correct."""
    mapped = project_points(a.xy[matches.index_a], h_gt)
    return np.linalg.norm(mapped - b.xy[matches.index_b], axis=1) <= epsilon


def points_in_shared_region(points: PointSet, h: np.ndarray, other_shape) -> np.ndarray:
    """True for points whose mapping under ``h`` stays inside the other image."""
    return map_points(points.xy, h, (other_shape[1], other_shape[0]))[1]


def matching_score(
    matches: MatchSet,
    a: PointSet,
    b: PointSet,
    h_gt: np.ndarray,
    shape_a,
    shape_b,
    epsilon: float = 3.0,
) -> float:
    """Symmetric ratio of correct matches over in-region extracted points.

    Empty in-region sets contribute 0 to their direction. Result in [0, 1].
    """
    correct = int(match_correctness(matches, a, b, h_gt, epsilon).sum())
    n_a = int(points_in_shared_region(a, h_gt, shape_b).sum())
    n_b = int(points_in_shared_region(b, np.linalg.inv(h_gt), shape_a).sum())
    score = 0.0
    if n_a > 0:
        score += 0.5 * correct / n_a
    if n_b > 0:
        score += 0.5 * correct / n_b
    return float(min(score, 1.0))


# ---------------------------------------------------------------------------
# homography estimation (closed-form 4-point fits inside RANSAC, DLT refit)
# ---------------------------------------------------------------------------


# RANSAC trials whose samples, fits and reprojection errors are computed
# together; trials past the adaptive stop are computed and discarded
RANSAC_CHUNK = 128

# probability that the adaptive trial budget draws at least one
# outlier-free sample, at the best inlier ratio found so far
RANSAC_CONFIDENCE = 0.99

# the four triples of a 4-point sample, each leaving one point out
_TRIPLES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _normalization(points: np.ndarray) -> np.ndarray:
    """Hartley similarity of an (m, 2) point set."""
    centroid = points.mean(axis=0)
    scale = np.sqrt(2.0) / max(np.linalg.norm(points - centroid, axis=1).mean(), 1e-12)
    t = np.diag([scale, scale, 1.0])
    t[:2, 2] = -scale * centroid
    return t


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Direct linear transform with Hartley normalization; None if degenerate.

    The SVD is full only for 4 points, whose null vector is the 9th row of
    the full V^T: a full refit on m points builds a (2m, 2m) U nothing reads.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    m = src.shape[0]
    if m < 4:
        return None
    t1 = _normalization(src)
    t2 = _normalization(dst)
    s = project_points(src, t1)
    d = project_points(dst, t2)
    x, y, u, v = s[:, 0], s[:, 1], d[:, 0], d[:, 1]
    z, o = np.zeros(m), np.ones(m)
    rows = np.stack([-x, -y, -o, z, z, z, u * x, u * y, u,
                     z, z, z, -x, -y, -o, v * x, v * y, v], axis=1).reshape(2 * m, 9)
    try:
        _, sing, vt = np.linalg.svd(rows, full_matrices=m == 4)
    except np.linalg.LinAlgError:
        return None
    if not sing[0] > 0 or sing[-2] / sing[0] < 1e-10:  # rank-deficient configuration
        return None
    h = np.linalg.inv(t2) @ vt[-1].reshape(3, 3) @ t1
    if abs(h[2, 2]) < 1e-12:
        return None
    return h / h[2, 2]


def _draw_samples(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """(size, 4) samples of 4 distinct indices in [0, n).

    Entry k is the j_k-th index not yet chosen, j_k = floor(u_k * (n - k)) for
    u = rng.random(4). The generator's stream does not depend on the shape
    drawn, so any chunking gives the samples of one rng.random(4) per trial.
    """
    picks = (rng.random((size, 4)) * (n - np.arange(4))).astype(np.intp)
    for k in range(1, 4):
        for chosen in np.sort(picks[:, :k], axis=1).T:
            picks[:, k] += picks[:, k] >= chosen
    return picks


def _four_point_homographies(src: np.ndarray, dst: np.ndarray):
    """Closed-form homography of each of K 4-point samples, (K, 4, 2) each.

    With p_i the homogeneous src points, c_i = p_j x p_k over the cyclic
    (i, j, k) of the first three and lambda_i = p_3 . c_i, sum_i lambda_i p_i
    is proportional to p_3 (mu_i likewise for the dst points q_i). So
    A = [lambda_i p_i] maps the projective basis to src and B = [mu_i q_i] to
    dst; adj(A) has rows lambda_j lambda_k c_i, so H = B adj(A) is proportional
    to sum_i (mu_i / lambda_i) q_i c_i^T. Returns (h, ok): h[2, 2] = 1 where
    ``ok``; False marks a non-finite H or h[2, 2] ~ 0 against its largest entry.
    """
    x, y = np.moveaxis(np.stack([src, dst]), -1, 0)
    xj, yj, xk, yk = x[..., [1, 2, 0]], y[..., [1, 2, 0]], x[..., [2, 0, 1]], y[..., [2, 0, 1]]
    c = np.stack([yj - yk, xk - xj, xj * yk - xk * yj])  # (x/y/w, src/dst, K, i)
    lam, mu = x[..., 3:] * c[0] + y[..., 3:] * c[1] + c[2]
    w = mu / lam
    q = np.stack([w * dst[:, :3, 0], w * dst[:, :3, 1], w])
    terms = q[:, None] * c[:, 0][None]
    h = (terms[..., 0] + terms[..., 1] + terms[..., 2]).transpose(2, 0, 1)
    scale = np.abs(h).max(axis=(1, 2))
    ok = np.isfinite(scale) & (np.abs(h[:, 2, 2]) > 1e-12 * scale)
    h[ok] /= h[ok, 2, 2][:, None, None]
    return h, ok


def _collinear(samples: np.ndarray) -> np.ndarray:
    """(K, 4, 2) minimal samples -> True where some triple is near-collinear."""
    bad = np.zeros(samples.shape[0], dtype=bool)
    for i, j, k in _TRIPLES:
        p0, p1, p2 = samples[:, i], samples[:, j], samples[:, k]
        area = np.abs(
            (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
            - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
        )
        bad |= area < 1e-6
    return bad


def _transfer_errors(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(K, n) distance of each h-mapped src point to its dst; inf at infinity."""
    x, y = src[:, 0], src[:, 1]
    mx, my, w = (h[:, r, 0, None] * x + h[:, r, 1, None] * y + h[:, r, 2, None]
                 for r in range(3))
    far = ~(np.abs(w) > 1e-12)
    w[far] = 1.0
    return np.where(far, np.inf, np.sqrt((mx / w - dst[:, 0]) ** 2 + (my / w - dst[:, 1]) ** 2))


def estimate_homography(
    matches: MatchSet,
    a: PointSet,
    b: PointSet,
    seed: int = 0,
    max_iters: int = 2000,
    inlier_threshold: float = 3.0,
) -> np.ndarray | None:
    """RANSAC over 4-point samples with a final refit on the inliers.

    Deterministic for a fixed seed. Returns None when fewer than 4 matches
    exist or every sample is degenerate.

    Trials run in chunks of ``RANSAC_CHUNK``: one ``rng.random`` draw gives
    the chunk's samples, and their collinearity tests, closed-form fits and
    reprojection errors are whole-array operations. The trials are then
    scanned in order with the sequential update rules (more inliers wins,
    equal counts go to the lower inlier error sum, degenerate samples still
    count as trials, and the adaptive trial budget stops the scan), visiting
    only trials whose count reaches the running maximum: no other can win.
    Each trial's numbers are the scalar operations of a one-trial loop, so the
    estimate does not depend on the chunk size; trials drawn past the stop are
    discarded. ``dlt_homography`` refits the winning inliers.
    """
    if len(matches) < 4:
        return None
    src = np.asarray(a.xy[matches.index_a], dtype=float)
    dst = np.asarray(b.xy[matches.index_b], dtype=float)
    n = src.shape[0]
    rng = np.random.default_rng(seed)
    best_inliers = None
    best_count = 0
    best_err = np.inf
    needed = max_iters
    trial = 0
    while trial < min(max_iters, needed):
        size = min(RANSAC_CHUNK, min(max_iters, needed) - trial)
        picks = _draw_samples(rng, n, size)
        fit = np.flatnonzero(~(_collinear(src[picks]) | _collinear(dst[picks])))
        hs, ok = _four_point_homographies(src[picks[fit]], dst[picks[fit]])
        fit, hs = fit[ok], hs[ok]
        errors = _transfer_errors(hs, src, dst)
        inliers = errors < inlier_threshold
        counts = inliers.sum(axis=1)
        for row in np.flatnonzero(counts >= np.maximum.accumulate(np.maximum(counts, best_count))):
            if trial + fit[row] >= min(max_iters, needed):
                break
            count = int(counts[row])
            err_sum = float(errors[row][inliers[row]].sum())
            if count == best_count and not err_sum < best_err:
                continue
            best_count, best_err, best_inliers = count, err_sum, inliers[row]
            if count >= 4:
                ratio = count / n
                misses = 1.0 - ratio**4
                if misses <= 1e-12:
                    needed = trial + fit[row] + 1
                else:
                    needed = int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / np.log(misses)))
        trial += size
    if best_inliers is None or best_count < 4:
        return None
    return dlt_homography(src[best_inliers], dst[best_inliers])


def homography_error(h_est: np.ndarray | None, h_gt: np.ndarray, size, epsilon: float = 3.0):
    """Mean four-corner reprojection distance and the correctness indicator.

    ``size`` is (width, height); a failed estimate, or one whose error is not
    finite (a corner sent to infinity), gives (inf, 0).
    """
    if h_est is None:
        return float("inf"), 0
    width, height = size
    corners = np.array([
        [0.0, 0.0], [width - 1.0, 0.0], [width - 1.0, height - 1.0], [0.0, height - 1.0]
    ])
    gaps = project_points(corners, h_gt) - project_points(corners, h_est)
    error = float(np.linalg.norm(gaps, axis=1).mean())
    if not np.isfinite(error):
        return float("inf"), 0
    return error, int(error <= epsilon)


# ---------------------------------------------------------------------------
# visualization
# ---------------------------------------------------------------------------

_POINT_COLOR = (0.25, 0.45, 1.0)
_MATCH_LINE = (0.1, 0.9, 0.1)
_MATCH_DOT = (1.0, 0.15, 0.15)


def _stamp(img, x, y, color):
    """Paint the 3x3 square around (x, y), clipped to the image."""
    img[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2] = color


def _line(img, x0, y0, x1, y1, color):
    steps = int(max(abs(x1 - x0), abs(y1 - y0), 1)) * 2
    xs = np.clip(np.rint(np.linspace(x0, x1, steps)).astype(int), 0, img.shape[1] - 1)
    ys = np.clip(np.rint(np.linspace(y0, y1, steps)).astype(int), 0, img.shape[0] - 1)
    img[ys, xs] = color


def render_matches(
    img_a, img_b, a: PointSet, b: PointSet, matches: MatchSet, correctness=None
) -> np.ndarray:
    """Side-by-side composite of two (H, W) images: every point marked,
    correct matches as lines.

    Output shape is (max height, width_a + width_b, 3) in [0, 1].
    """
    left = np.repeat(np.asarray(img_a, dtype=float)[:, :, None], 3, axis=2)
    right = np.repeat(np.asarray(img_b, dtype=float)[:, :, None], 3, axis=2)
    height = max(left.shape[0], right.shape[0])
    canvas = np.zeros((height, left.shape[1] + right.shape[1], 3))
    canvas[: left.shape[0], : left.shape[1]] = left
    canvas[: right.shape[0], left.shape[1] :] = right
    offset = left.shape[1]

    for x, y in np.rint(a.xy).astype(int):
        _stamp(canvas, x, y, _POINT_COLOR)
    for x, y in np.rint(b.xy).astype(int):
        _stamp(canvas, x + offset, y, _POINT_COLOR)
    if correctness is None:
        correctness = np.ones(len(matches), dtype=bool)
    for ia, ib, good in zip(matches.index_a, matches.index_b, correctness):
        if not good:
            continue
        xa, ya = np.rint(a.xy[ia]).astype(int)
        xb, yb = np.rint(b.xy[ib]).astype(int)
        _line(canvas, xa, ya, xb + offset, yb, _MATCH_LINE)
        _stamp(canvas, xa, ya, _MATCH_DOT)
        _stamp(canvas, xb + offset, yb, _MATCH_DOT)
    return canvas
