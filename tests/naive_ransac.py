"""Sequential, one-trial-at-a-time RANSAC used as a test oracle.

This is the straightforward loop that ``evaluate.estimate_homography``
vectorises: one ``rng.choice`` sample per trial, a collinearity test built
from ``np.delete``, a DLT whose rows are built in a Python loop, and the
reprojection errors of one hypothesis at a time. It shares no code with the
package, so the library's chunked evaluation can be checked against it for
bit-identical results.
"""

import numpy as np


def normalization(points):
    centroid = points.mean(axis=0)
    spread = np.linalg.norm(points - centroid, axis=1).mean()
    scale = np.sqrt(2.0) / max(spread, 1e-12)
    return np.array([
        [scale, 0.0, -scale * centroid[0]],
        [0.0, scale, -scale * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def dlt_homography(src, dst):
    """Direct linear transform with Hartley normalization; None if degenerate."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape[0] < 4:
        return None
    t1 = normalization(src)
    t2 = normalization(dst)
    s = (np.hstack([src, np.ones((src.shape[0], 1))]) @ t1.T)[:, :2]
    d = (np.hstack([dst, np.ones((dst.shape[0], 1))]) @ t2.T)[:, :2]
    rows = []
    for (x, y), (u, v) in zip(s, d):
        rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u])
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v])
    try:
        _, sing, vt = np.linalg.svd(np.array(rows))
    except np.linalg.LinAlgError:
        return None
    if sing[0] <= 0 or sing[-2] / sing[0] < 1e-10:  # rank-deficient configuration
        return None
    h = np.linalg.inv(t2) @ vt[-1].reshape(3, 3) @ t1
    if abs(h[2, 2]) < 1e-12:
        return None
    return h / h[2, 2]


def reprojection_errors(h, src, dst):
    mapped = np.hstack([src, np.ones((src.shape[0], 1))]) @ h.T
    w = mapped[:, 2]
    err = np.full(src.shape[0], np.inf)
    ok = np.abs(w) > 1e-12
    err[ok] = np.linalg.norm(mapped[ok, :2] / w[ok, None] - dst[ok], axis=1)
    return err


def spread_out(points):
    """Reject minimal samples with near-collinear triples."""
    for skip in range(4):
        tri = np.delete(points, skip, axis=0)
        area = abs(
            (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
            - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0])
        )
        if area < 1e-6:
            return False
    return True


def estimate_homography(matches, a, b, seed=0, max_iters=2000, inlier_threshold=3.0,
                        confidence=0.99):
    """RANSAC over 4-point samples with a final refit on the inliers."""
    if len(matches) < 4:
        return None
    src = a.xy[matches.index_a]
    dst = b.xy[matches.index_b]
    n = src.shape[0]
    rng = np.random.default_rng(seed)
    best_inliers = None
    best_count = 0
    best_err = np.inf
    needed = max_iters
    trial = 0
    while trial < min(max_iters, needed):
        trial += 1
        pick = rng.choice(n, size=4, replace=False)
        if not (spread_out(src[pick]) and spread_out(dst[pick])):
            continue
        h = dlt_homography(src[pick], dst[pick])
        if h is None:
            continue
        errors = reprojection_errors(h, src, dst)
        inliers = errors < inlier_threshold
        count = int(inliers.sum())
        err_sum = float(errors[inliers].sum())
        if count > best_count or (count == best_count and err_sum < best_err):
            best_count, best_err, best_inliers = count, err_sum, inliers
            if count >= 4:
                ratio = count / n
                misses = 1.0 - ratio**4
                if misses <= 1e-12:
                    needed = trial
                else:
                    needed = int(np.ceil(np.log(1.0 - confidence) / np.log(misses)))
    if best_inliers is None or best_count < 4:
        return None
    return dlt_homography(src[best_inliers], dst[best_inliers])
