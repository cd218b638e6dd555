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
from .properties import neighborhood_max
from .simulate import map_points


@dataclass
class PointSet:
    """Extracted points: (n, 2) xy coordinates, scores, unit descriptors."""

    xy: np.ndarray
    scores: np.ndarray
    descriptors: np.ndarray

    def __len__(self) -> int:
        return self.xy.shape[0]

    @classmethod
    def empty(cls, descriptor_dim: int) -> "PointSet":
        return cls(np.zeros((0, 2)), np.zeros(0), np.zeros((0, descriptor_dim)))


@dataclass
class MatchSet:
    """One-to-one mutual nearest-neighbor matches between two point sets."""

    index_a: np.ndarray
    index_b: np.ndarray

    def __len__(self) -> int:
        return self.index_a.shape[0]


def extract_points(
    output: model.ModelOutput, prob_threshold: float, rad: int, max_points: int
) -> PointSet:
    """Strict NMS, then probability threshold, then top-K by score.

    Ties in score are broken by scan order (row-major), so extraction is
    deterministic.
    """
    if not 0.0 < prob_threshold < 1.0:
        raise ValueError(f"prob_threshold must be in (0, 1), got {prob_threshold}")
    prob = output.prob_map
    keep = (prob > neighborhood_max(prob, rad)) & (prob > prob_threshold)
    rows, cols = np.nonzero(keep)
    scores = prob[rows, cols]
    order = np.argsort(-scores, kind="stable")[:max_points]
    rows, cols, scores = rows[order], cols[order], scores[order]
    return PointSet(
        xy=np.stack([cols, rows], axis=1).astype(float),
        scores=scores,
        descriptors=output.describe(rows, cols),
    )


def detect_points(params, image, prob_threshold: float, rad: int, max_points: int) -> PointSet:
    """Points of one image: edge-pad to multiples of 4, tape-free forward,
    ``extract_points``, then drop the points that top-K kept in the pad."""
    padded, (height, width) = pad_to_multiple_of_4(image)
    points = extract_points(model.forward(params, padded, keep_cache=False),
                            prob_threshold, rad, max_points)
    inside = (points.xy[:, 0] <= width - 1) & (points.xy[:, 1] <= height - 1)
    return PointSet(points.xy[inside], points.scores[inside], points.descriptors[inside])


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
    """True where the ground-truth-mapped point lies within epsilon of its partner."""
    if len(matches) == 0:
        return np.zeros(0, dtype=bool)
    mapped = np.hstack([a.xy[matches.index_a], np.ones((len(matches), 1))]) @ h_gt.T
    ok = np.abs(mapped[:, 2]) > 1e-9
    mapped_xy = np.full((len(matches), 2), np.inf)
    mapped_xy[ok] = mapped[ok, :2] / mapped[ok, 2:3]
    dist = np.linalg.norm(mapped_xy - b.xy[matches.index_b], axis=1)
    return ok & (dist <= epsilon)


def points_in_shared_region(points: PointSet, h: np.ndarray, other_shape) -> np.ndarray:
    """True for points whose mapping under ``h`` stays inside the other image."""
    if len(points) == 0:
        return np.zeros(0, dtype=bool)
    height, width = other_shape[:2]
    _, valid = map_points(points.xy, h, (width, height))
    return valid


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
# homography estimation (normalized DLT inside RANSAC)
# ---------------------------------------------------------------------------


# RANSAC trials whose minimal-sample fits and reprojection errors are
# computed together; trials past the adaptive stop are computed and discarded
RANSAC_CHUNK = 64

# probability that the adaptive trial budget draws at least one
# outlier-free sample, at the best inlier ratio found so far
RANSAC_CONFIDENCE = 0.99

# the four triples of a 4-point sample, each leaving one point out
_TRIPLES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _normalizations(points: np.ndarray) -> np.ndarray:
    """Hartley similarity per point set: (K, m, 2) -> (K, 3, 3)."""
    centroid = points.mean(axis=1)
    spread = np.linalg.norm(points - centroid[:, None], axis=2).mean(axis=1)
    scale = np.sqrt(2.0) / np.maximum(spread, 1e-12)
    t = np.zeros((points.shape[0], 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = scale
    t[:, :2, 2] = -scale[:, None] * centroid
    t[:, 2, 2] = 1.0
    return t


def _svd_stack(rows: np.ndarray):
    """Singular values and the (9, 9) V^T of each (2m, 9) matrix; NaN where
    the SVD fails.

    U is never used, so it is only as wide as V^T needs: the full SVD only
    for minimal 4-point samples (8 rows), whose null vector is the 9th row
    of the full V^T. A refit on m points would otherwise build a (2m, 2m) U,
    32 MB at 1,000 matches.
    """
    full = rows.shape[1] < rows.shape[2]
    try:
        _, sing, vt = np.linalg.svd(rows, full_matrices=full)
        return sing, vt
    except np.linalg.LinAlgError:  # isolate the matrices that did not converge
        sing = np.full((len(rows), min(rows.shape[1:])), np.nan)
        vt = np.full((len(rows), 9, 9), np.nan)
        for k, a in enumerate(rows):
            try:
                _, sing[k], vt[k] = np.linalg.svd(a, full_matrices=full)
            except np.linalg.LinAlgError:
                pass
        return sing, vt


def _dlt_stack(src: np.ndarray, dst: np.ndarray):
    """Normalized DLT on K correspondence sets of m >= 4 points each.

    ``src`` and ``dst`` are (K, m, 2). Returns (h, ok): h is (K, 3, 3) with
    h[2, 2] = 1 where ``ok``; a False ``ok`` marks a degenerate set (rank
    deficient, SVD failure, or h[2, 2] ~ 0) whose h is undefined.
    """
    count, m = src.shape[:2]
    t1 = _normalizations(src)
    t2 = _normalizations(dst)
    ones = np.ones((count, m, 1))
    s = (np.concatenate([src, ones], axis=2) @ t1.transpose(0, 2, 1))[:, :, :2]
    d = (np.concatenate([dst, ones], axis=2) @ t2.transpose(0, 2, 1))[:, :, :2]
    x, y, u, v = s[:, :, 0], s[:, :, 1], d[:, :, 0], d[:, :, 1]
    rows = np.zeros((count, 2 * m, 9))
    rows[:, 0::2, 0], rows[:, 0::2, 1], rows[:, 0::2, 2] = -x, -y, -1.0
    rows[:, 1::2, 3], rows[:, 1::2, 4], rows[:, 1::2, 5] = -x, -y, -1.0
    rows[:, 0::2, 6], rows[:, 0::2, 7], rows[:, 0::2, 8] = u * x, u * y, u
    rows[:, 1::2, 6], rows[:, 1::2, 7], rows[:, 1::2, 8] = v * x, v * y, v
    sing, vt = _svd_stack(rows)
    ok = sing[:, 0] > 0
    ok[ok] = ~(sing[ok, -2] / sing[ok, 0] < 1e-10)  # rank-deficient configuration
    h = np.linalg.inv(t2) @ vt[:, -1].reshape(count, 3, 3) @ t1
    ok &= ~(np.abs(h[:, 2, 2]) < 1e-12)
    h[ok] /= h[ok, 2, 2][:, None, None]
    return h, ok


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Direct linear transform with Hartley normalization; None if degenerate."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape[0] < 4:
        return None
    h, ok = _dlt_stack(src[None], dst[None])
    return h[0] if ok[0] else None


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
    mapped = np.hstack([src, np.ones((src.shape[0], 1))]) @ h.transpose(0, 2, 1)
    w = mapped[:, :, 2]
    finite = np.abs(w) > 1e-12
    xy = mapped[:, :, :2] / np.where(finite, w, 1.0)[:, :, None]
    return np.where(finite, np.linalg.norm(xy - dst, axis=2), np.inf)


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

    Trials run in chunks of ``RANSAC_CHUNK``: the chunk's samples are drawn
    by the same sequential ``rng.choice`` calls as a one-trial-at-a-time
    loop, their collinearity tests, DLT fits and reprojection errors are
    computed as stacks, and the trials are then scanned in order with the
    sequential update rules (more inliers wins, equal counts go to the lower
    inlier error sum, degenerate samples still count as trials, and the
    adaptive trial budget stops the scan). Every stacked operation performs
    the same floating-point operations per element as its one-trial form,
    so the estimate is bit-identical to the sequential loop; trials drawn
    past the stopping point are discarded.
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
        picks = np.array([rng.choice(n, size=4, replace=False) for _ in range(size)])
        fit = np.flatnonzero(~(_collinear(src[picks]) | _collinear(dst[picks])))
        hs, ok = _dlt_stack(src[picks[fit]], dst[picks[fit]])
        fit, hs = fit[ok], hs[ok]
        errors = _transfer_errors(hs, src, dst)
        inliers = errors < inlier_threshold
        counts = inliers.sum(axis=1)
        for row, offset in enumerate(fit):
            if trial + offset >= min(max_iters, needed):
                break
            count = int(counts[row])
            if count < best_count:
                continue
            err_sum = float(errors[row][inliers[row]].sum())
            if count == best_count and not err_sum < best_err:
                continue
            best_count, best_err, best_inliers = count, err_sum, inliers[row]
            if count >= 4:
                ratio = count / n
                misses = 1.0 - ratio**4
                if misses <= 1e-12:
                    needed = trial + offset + 1
                else:
                    needed = int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / np.log(misses)))
        trial += size
    if best_inliers is None or best_count < 4:
        return None
    return dlt_homography(src[best_inliers], dst[best_inliers])


def homography_error(h_est: np.ndarray | None, h_gt: np.ndarray, size, epsilon: float = 3.0):
    """Mean four-corner reprojection distance and the correctness indicator.

    ``size`` is (width, height); a failed estimate gives (inf, 0).
    """
    if h_est is None:
        return float("inf"), 0
    width, height = size
    corners = np.array([
        [0.0, 0.0], [width - 1.0, 0.0], [width - 1.0, height - 1.0], [0.0, height - 1.0]
    ])
    ones = np.ones((4, 1))
    gt = np.hstack([corners, ones]) @ h_gt.T
    est = np.hstack([corners, ones]) @ h_est.T
    if np.any(np.abs(gt[:, 2]) < 1e-12) or np.any(np.abs(est[:, 2]) < 1e-12):
        return float("inf"), 0
    gt_xy = gt[:, :2] / gt[:, 2:3]
    est_xy = est[:, :2] / est[:, 2:3]
    error = float(np.linalg.norm(gt_xy - est_xy, axis=1).mean())
    return error, int(error <= epsilon)


# ---------------------------------------------------------------------------
# visualization
# ---------------------------------------------------------------------------

_POINT_COLOR = (0.25, 0.45, 1.0)
_MATCH_LINE = (0.1, 0.9, 0.1)
_MATCH_DOT = (1.0, 0.15, 0.15)


def _stamp(img, x, y, color, half=1):
    h, w, _ = img.shape
    r0, r1 = max(y - half, 0), min(y + half + 1, h)
    c0, c1 = max(x - half, 0), min(x + half + 1, w)
    img[r0:r1, c0:c1] = color


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
