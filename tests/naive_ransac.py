"""Sequential, one-trial-at-a-time RANSAC used as a test oracle.

This is the straightforward loop that ``evaluate.estimate_homography``
vectorises: one ``rng.random(4)`` draw per trial, turned into 4 distinct
indices in a Python loop, a collinearity test built from ``np.delete``, the
closed-form 4-point homography in scalar arithmetic, the reprojection errors
of one hypothesis at a time, and a final DLT refit whose rows are built in a
Python loop. It shares no code with the package, so the library's chunked
evaluation can be checked against it for bit-identical results.
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


def draw_sample(rng, n):
    """4 distinct indices in [0, n): the k-th is the j-th index not yet chosen."""
    u = rng.random(4)
    pick = []
    for k in range(4):
        j = int(u[k] * (n - k))
        for chosen in sorted(pick):
            if j >= chosen:
                j += 1
        pick.append(j)
    return np.array(pick)


def four_point_homography(src, dst):
    """H with H p_i ~ q_i for 4 point pairs, from the projective basis on each
    side: H ~ B adj(A) = sum_i (mu_i / lambda_i) q_i c_i^T; None if degenerate."""

    def crosses_and_coefficients(p):
        # c_i = p_i+1 x p_i+2 (cyclic over the first three), lambda_i = p_3 . c_i
        crosses = []
        for j, k in ((1, 2), (2, 0), (0, 1)):
            (xj, yj), (xk, yk) = p[j], p[k]
            crosses.append((yj - yk, xk - xj, xj * yk - xk * yj))
        x3, y3 = p[3]
        return crosses, [x3 * cx + y3 * cy + cw for cx, cy, cw in crosses]

    crosses, lam = crosses_and_coefficients(src)
    _, mu = crosses_and_coefficients(dst)
    weights = [mu[i] / lam[i] for i in range(3)]
    q = [[weights[i] * dst[i][0] for i in range(3)],
         [weights[i] * dst[i][1] for i in range(3)],
         weights]
    h = np.array([[q[r][0] * crosses[0][s] + q[r][1] * crosses[1][s] + q[r][2] * crosses[2][s]
                   for s in range(3)] for r in range(3)])
    scale = np.abs(h).max()
    if not (np.isfinite(scale) and abs(h[2, 2]) > 1e-12 * scale):
        return None
    return h / h[2, 2]


def reprojection_errors(h, src, dst):
    x, y = src[:, 0], src[:, 1]
    w = h[2, 0] * x + h[2, 1] * y + h[2, 2]
    err = np.full(src.shape[0], np.inf)
    ok = np.abs(w) > 1e-12
    u = (h[0, 0] * x[ok] + h[0, 1] * y[ok] + h[0, 2]) / w[ok]
    v = (h[1, 0] * x[ok] + h[1, 1] * y[ok] + h[1, 2]) / w[ok]
    err[ok] = np.sqrt((u - dst[ok, 0]) ** 2 + (v - dst[ok, 1]) ** 2)
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
        pick = draw_sample(rng, n)
        if not (spread_out(src[pick]) and spread_out(dst[pick])):
            continue
        h = four_point_homography(src[pick], dst[pick])
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
