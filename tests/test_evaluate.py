import numpy as np
import pytest

import naive_ransac
from conftest import FieldOutput, shape_scenes
from pointprops import evaluate, model


def output_from(prob, desc=None):
    prob = np.asarray(prob, dtype=float)
    if desc is None:
        rng = np.random.default_rng(0)
        desc = rng.normal(size=prob.shape + (8,))
        desc /= np.linalg.norm(desc, axis=-1, keepdims=True)
    return FieldOutput(prob, desc)


def point_set(xy, descriptors):
    return evaluate.PointSet(xy=np.asarray(xy, dtype=float),
                             descriptors=np.asarray(descriptors, dtype=float))


def one_hot_points(xy, dim=None):
    n = len(xy)
    dim = dim or max(n, 2)
    return point_set(xy, np.eye(n, dim))


def extraction_reference(prob, pt, rad, maxk, desc):
    """Brute-force sort-filter pipeline."""
    h, w = prob.shape
    picked = []
    for r in range(h):
        for c in range(w):
            best = True
            for dr in range(-rad, rad + 1):
                for dc in range(-rad, rad + 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and prob[rr, cc] >= prob[r, c]:
                        best = False
            if best and prob[r, c] > pt:
                picked.append((-prob[r, c], r * w + c, c, r))
    picked.sort()
    picked = picked[:maxk]
    return [(x, y) for _, _, x, y in picked]


class TestExtractPoints:
    def test_single_spike(self):
        prob = np.full((16, 16), 0.1)
        prob[5, 9] = 0.9
        pts = evaluate.extract_points(output_from(prob), 0.5, rad=2, max_points=10,
                                      shape=prob.shape)
        assert len(pts) == 1
        np.testing.assert_array_equal(pts.xy[0], [9, 5])

    def test_uniform_map_is_empty(self):
        pts = evaluate.extract_points(output_from(np.full((16, 16), 0.9)), 0.5, 2, 10,
                                      (16, 16))
        assert len(pts) == 0

    def test_matches_reference_pipeline(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            prob = rng.random((14, 14)) * 0.98 + 0.01
            out = output_from(prob)
            pts = evaluate.extract_points(out, 0.5, rad=2, max_points=5, shape=prob.shape)
            ref = extraction_reference(prob, 0.5, 2, 5, out.desc_field)
            assert [(x, y) for x, y in pts.xy] == ref

    def test_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prob = rng.random((20, 20)) * 0.98 + 0.01
            out = output_from(prob)
            pts = evaluate.extract_points(out, 0.4, rad=3, max_points=8, shape=prob.shape)
            assert len(pts) <= 8
            scores = prob[pts.xy[:, 1].astype(int), pts.xy[:, 0].astype(int)]
            assert np.all(scores > 0.4) and np.all(np.diff(scores) <= 0)
            np.testing.assert_allclose(
                np.linalg.norm(pts.descriptors, axis=1), 1.0, atol=1e-6
            )
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    cheb = np.max(np.abs(pts.xy[i] - pts.xy[j]))
                    assert cheb > 3

    def pad_fixture(self):
        # rows and columns 6-7 of the 8x8 map are an edge pad around a 6x6
        # image; the pad holds the strongest maximum
        prob = np.full((8, 8), 0.1)
        prob[7, 7] = 0.95
        prob[2, 2] = 0.9
        prob[5, 5] = 0.8  # within rad of the pad's maximum
        return output_from(prob)

    def test_pad_maxima_take_no_slot(self):
        # the pad is cut off before NMS, so the one slot goes to the image's
        # best maximum
        pts = evaluate.extract_points(self.pad_fixture(), 0.5, 2, 1, (6, 6))
        np.testing.assert_array_equal(pts.xy, [[2.0, 2.0]])

    def test_pad_maxima_suppress_nothing(self):
        pts = evaluate.extract_points(self.pad_fixture(), 0.5, 2, 2, (6, 6))
        np.testing.assert_array_equal(pts.xy, [[2.0, 2.0], [5.0, 5.0]])


def reference_matcher(a, b):
    """O(n^2) loops over candidate pairs."""
    pairs = []
    for i in range(len(a)):
        sims_i = [float(a.descriptors[i] @ b.descriptors[j]) for j in range(len(b))]
        best_j = int(np.argmax(sims_i))
        sims_j = [float(a.descriptors[k] @ b.descriptors[best_j]) for k in range(len(a))]
        if int(np.argmax(sims_j)) == i:
            pairs.append((i, best_j))
    return pairs


class TestDetectPoints:
    def test_capped_call_is_the_uncapped_prefix(self):
        # 37x39 crops are padded to 40x40; before the top-K ranked only
        # in-image maxima, points in the pad took slots and capped calls
        # came back short
        for seed in (0, 1):
            params = model.init_params(seed, 8)
            for img in shape_scenes(seed, 2, 40):
                crop = img[:37, :39]
                full = evaluate.detect_points(params, crop, 0.01, 2, 10**6)
                assert len(full) > 5
                assert full.xy[:, 0].max() <= 38 and full.xy[:, 1].max() <= 36
                for k in range(1, len(full) + 1):
                    capped = evaluate.detect_points(params, crop, 0.01, 2, k)
                    np.testing.assert_array_equal(capped.xy, full.xy[:k])
                    np.testing.assert_array_equal(capped.descriptors, full.descriptors[:k])


class TestMatchTwoWay:
    def test_identity_match(self):
        a = one_hot_points([[0, 0], [5, 5], [9, 3]])
        m = evaluate.match_two_way(a, a)
        np.testing.assert_array_equal(m.index_a, [0, 1, 2])
        np.testing.assert_array_equal(m.index_b, [0, 1, 2])

    def test_collision_keeps_only_mutual_pair(self):
        desc_a = np.array([[1.0, 0.0], [0.96, 0.28]])
        desc_b = np.array([[1.0, 0.0]])
        m = evaluate.match_two_way(point_set([[0, 0], [4, 4]], desc_a),
                                   point_set([[1, 1]], desc_b))
        assert len(m) == 1
        assert (m.index_a[0], m.index_b[0]) == (0, 0)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            da = rng.normal(size=(20, 6))
            da /= np.linalg.norm(da, axis=1, keepdims=True)
            db = rng.normal(size=(20, 6))
            db /= np.linalg.norm(db, axis=1, keepdims=True)
            a = point_set(rng.uniform(0, 30, (20, 2)), da)
            b = point_set(rng.uniform(0, 30, (20, 2)), db)
            m = evaluate.match_two_way(a, b)
            assert list(zip(m.index_a, m.index_b)) == reference_matcher(a, b)

    def test_empty_inputs(self):
        empty = point_set(np.zeros((0, 2)), np.zeros((0, 4)))
        assert len(evaluate.match_two_way(empty, empty)) == 0


class TestMatchCorrectness:
    def test_no_matches(self):
        a = one_hot_points([[2.0, 3.0]])
        none = evaluate.MatchSet(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        correct = evaluate.match_correctness(none, a, a, np.eye(3), 3.0)
        assert correct.shape == (0,) and correct.dtype == bool

    def test_point_sent_to_infinity_is_never_correct(self):
        a = one_hot_points([[0.0, 0.0], [4.0, 4.0]])
        both = evaluate.MatchSet(np.arange(2), np.arange(2))
        # w = 1 - x / 4: (0, 0) stays put, (4, 4) goes to infinity
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.25, 0.0, 1.0]])
        correct = evaluate.match_correctness(both, a, a, h, 3.0)
        np.testing.assert_array_equal(correct, [True, False])


class TestMatchingScore:
    def test_perfect_matching(self):
        xy = [[2.0, 3.0], [10.0, 4.0], [7.0, 12.0]]
        a = one_hot_points(xy)
        b = one_hot_points(xy)
        m = evaluate.match_two_way(a, b)
        score = evaluate.matching_score(m, a, b, np.eye(3), (16, 16), (16, 16))
        assert score == 1.0

    def test_no_matches(self):
        a = one_hot_points([[2.0, 3.0]])
        empty = point_set(np.zeros((0, 2)), np.zeros((0, 2)))
        m = evaluate.match_two_way(a, empty)
        assert evaluate.matching_score(m, a, empty, np.eye(3), (16, 16), (16, 16)) == 0.0

    def test_hand_built_ratio(self):
        # 10 and 12 in-region points, 6 correct matches: 0.5*(6/10 + 6/12) = 0.55
        rng = np.random.default_rng(4)
        xy_a = rng.uniform(2, 5, size=(10, 2))
        xy_b_all = np.vstack([xy_a, rng.uniform(2, 14, size=(2, 2))])
        desc = np.eye(12)
        a = point_set(xy_a, desc[:10, :])
        b = point_set(xy_b_all, desc)
        matches = evaluate.MatchSet(index_a=np.arange(10), index_b=np.arange(10))
        # displace 4 partners well beyond epsilon (still in-region)
        b.xy[6:10] += 10.0
        score = evaluate.matching_score(matches, a, b, np.eye(3), (16, 16), (16, 16),
                                        epsilon=3.0)
        assert score == pytest.approx(0.5 * (6 / 10 + 6 / 12), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        h = np.eye(3)
        h[0, 2] = 2.0
        da = rng.normal(size=(8, 5))
        da /= np.linalg.norm(da, axis=1, keepdims=True)
        db = rng.normal(size=(9, 5))
        db /= np.linalg.norm(db, axis=1, keepdims=True)
        a = point_set(rng.uniform(0, 20, (8, 2)), da)
        b = point_set(rng.uniform(0, 20, (9, 2)), db)
        m_ab = evaluate.match_two_way(a, b)
        m_ba = evaluate.match_two_way(b, a)
        s_ab = evaluate.matching_score(m_ab, a, b, h, (24, 24), (24, 24))
        s_ba = evaluate.matching_score(m_ba, b, a, np.linalg.inv(h), (24, 24), (24, 24))
        assert s_ab == pytest.approx(s_ba, abs=1e-12)


def apply_h(h, pts):
    mapped = np.hstack([pts, np.ones((len(pts), 1))]) @ h.T
    return mapped[:, :2] / mapped[:, 2:3]


def known_homography():
    return np.array([
        [0.95, 0.08, 3.0],
        [-0.06, 1.04, -2.0],
        [1.5e-4, -2.0e-4, 1.0],
    ])


class TestEstimateHomography:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(6)
        h_true = known_homography()
        src = rng.uniform(0, 48, size=(12, 2))
        dst = apply_h(h_true, src)
        a = point_set(src, np.eye(12))
        b = point_set(dst, np.eye(12))
        matches = evaluate.MatchSet(np.arange(12), np.arange(12))
        h_est = evaluate.estimate_homography(matches, a, b, seed=0)
        error, correct = evaluate.homography_error(h_est, h_true, (48, 48))
        assert error < 1e-6
        assert correct == 1

    def test_robust_to_half_outliers(self):
        h_true = known_homography()
        successes = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            src_in = rng.uniform(0, 48, size=(20, 2))
            dst_in = apply_h(h_true, src_in)
            src_out = rng.uniform(0, 48, size=(20, 2))
            dst_out = rng.uniform(0, 48, size=(20, 2))  # gross outliers
            src = np.vstack([src_in, src_out])
            dst = np.vstack([dst_in, dst_out])
            a = point_set(src, np.eye(40))
            b = point_set(dst, np.eye(40))
            matches = evaluate.MatchSet(np.arange(40), np.arange(40))
            h_est = evaluate.estimate_homography(matches, a, b, seed=seed)
            error, _ = evaluate.homography_error(h_est, h_true, (48, 48))
            successes += error < 0.5
        assert successes >= 95

    def test_too_few_matches(self):
        a = one_hot_points([[0, 0], [5, 1], [3, 7]])
        matches = evaluate.MatchSet(np.arange(3), np.arange(3))
        assert evaluate.estimate_homography(matches, a, a, seed=0) is None

    def test_collinear_sample_degenerate(self):
        xy = [[float(i), 2.0 * i + 1.0] for i in range(8)]  # all on one line
        a = one_hot_points(xy)
        matches = evaluate.MatchSet(np.arange(8), np.arange(8))
        assert evaluate.estimate_homography(matches, a, a, seed=0) is None

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        h_true = known_homography()
        src = np.vstack([rng.uniform(0, 32, (15, 2)), rng.uniform(0, 32, (5, 2))])
        dst = np.vstack([apply_h(h_true, src[:15]), rng.uniform(0, 32, (5, 2))])
        a = point_set(src, np.eye(20))
        b = point_set(dst, np.eye(20))
        matches = evaluate.MatchSet(np.arange(20), np.arange(20))
        h1 = evaluate.estimate_homography(matches, a, b, seed=5)
        h2 = evaluate.estimate_homography(matches, a, b, seed=5)
        np.testing.assert_array_equal(h1, h2)


def ransac_case(seed, n, outlier_fraction, noise=0.0, size=320.0):
    """Matches under known_homography with a seeded share of gross outliers."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(0, size, (n, 2))
    dst = apply_h(known_homography(), src) + rng.normal(0.0, noise, (n, 2))
    outliers = rng.permutation(n)[: int(round(outlier_fraction * n))]
    dst[outliers] = rng.uniform(0, size, (outliers.size, 2))
    return src, dst


def both_ways(src, dst, seed, **kwargs):
    n = len(src)
    a = point_set(src, np.zeros((n, 2)))
    b = point_set(dst, np.zeros((n, 2)))
    matches = evaluate.MatchSet(np.arange(n), np.arange(n))
    return (evaluate.estimate_homography(matches, a, b, seed=seed, **kwargs),
            naive_ransac.estimate_homography(matches, a, b, seed=seed, **kwargs))


def assert_same_estimate(h_lib, h_ref):
    assert (h_lib is None) == (h_ref is None)
    if h_ref is not None:
        assert np.array_equal(h_lib, h_ref)


class TestChunkedRansacMatchesReference:
    """The chunked RANSAC returns the sequential reference's H bit for bit."""

    def test_fewer_than_four_matches(self):
        for n in range(4):
            h_lib, h_ref = both_ways(*ransac_case(n, n, 0.0), seed=n)
            assert h_lib is None and h_ref is None

    def test_all_collinear(self):
        src = np.stack([np.arange(12.0), 3.0 * np.arange(12.0) - 2.0], axis=1)
        h_lib, h_ref = both_ways(src, apply_h(known_homography(), src), seed=1)
        assert h_lib is None and h_ref is None

    def test_coincident_points(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0, 64, (3, 2))
        src = base[rng.integers(0, 3, 30)]  # 30 points on 3 sites
        dst = apply_h(known_homography(), src)
        for seed in range(3):
            h_lib, h_ref = both_ways(src, dst, seed=seed)
            assert h_lib is None and h_ref is None
        # mostly coincident plus a few distinct points: a fit exists
        src = np.vstack([src, rng.uniform(0, 64, (4, 2))])
        dst = np.vstack([dst, apply_h(known_homography(), src[-4:])])
        for seed in range(3):
            assert_same_estimate(*both_ways(src, dst, seed=seed))

    def test_noiseless_all_inliers_stop_in_first_chunk(self):
        for seed in range(4):
            src, dst = ransac_case(10 + seed, 25, 0.0)
            h_lib, h_ref = both_ways(src, dst, seed=seed)
            assert h_ref is not None
            assert_same_estimate(h_lib, h_ref)

    @pytest.mark.parametrize("fraction", [0.5, 0.7, 0.9])
    def test_heavy_outliers_across_chunks(self, fraction):
        estimates = 0
        for seed in range(3):
            src, dst = ransac_case(100 + seed, 60, fraction, noise=1.0)
            h_lib, h_ref = both_ways(src, dst, seed=seed, max_iters=600)
            assert_same_estimate(h_lib, h_ref)
            estimates += h_ref is not None
        assert estimates > 0

    def test_max_iters_not_a_chunk_multiple(self):
        max_iters = 2 * evaluate.RANSAC_CHUNK + 13
        for seed in range(3):
            src, dst = ransac_case(200 + seed, 50, 0.85, noise=1.5)
            assert_same_estimate(*both_ways(src, dst, seed=seed, max_iters=max_iters))

    def test_quantized_points_with_ties(self):
        # integer pixel coordinates, as extract_points gives, make equal inlier
        # counts common, so the error-sum tie-break decides
        for seed in range(4):
            src, dst = ransac_case(300 + seed, 40, 0.6, noise=0.8)
            assert_same_estimate(*both_ways(np.round(src), np.round(dst), seed=seed,
                                            max_iters=400))

    def test_non_finite_coordinates(self):
        # samples holding the bad points get a non-finite closed-form H; those
        # trials are skipped
        for seed in range(3):
            src, dst = ransac_case(500 + seed, 30, 0.3, noise=0.5)
            src[3] = [np.inf, 2.0]
            dst[7] = [np.nan, 1.0]
            with np.errstate(all="ignore"):
                h_lib, h_ref = both_ways(src, dst, seed=seed, max_iters=200)
            assert h_ref is not None
            assert_same_estimate(h_lib, h_ref)

    def test_dlt_refit_matches_reference(self):
        for seed, n in enumerate((4, 5, 9, 33, 150)):
            src, dst = ransac_case(400 + seed, n, 0.0, noise=0.5)
            np.testing.assert_array_equal(evaluate.dlt_homography(src, dst),
                                          naive_ransac.dlt_homography(src, dst))


class TestDrawSamples:
    """RANSAC's 4-point samples, drawn a chunk of trials at a time."""

    def test_chunking_gives_the_one_trial_draws(self):
        n, trials = 37, 3 * evaluate.RANSAC_CHUNK + 5
        ref_rng = np.random.default_rng(11)
        reference = np.array([naive_ransac.draw_sample(ref_rng, n) for _ in range(trials)])
        for chunk in (1, 7, evaluate.RANSAC_CHUNK):
            rng = np.random.default_rng(11)
            drawn = np.concatenate([evaluate._draw_samples(rng, n, min(chunk, trials - start))
                                    for start in range(0, trials, chunk)])
            np.testing.assert_array_equal(drawn, reference)

    def test_distinct_indices_in_range(self):
        rng = np.random.default_rng(12)
        for n in (4, 5, 9, 100, 1000):
            picks = np.sort(evaluate._draw_samples(rng, n, 2000), axis=1)
            assert picks[:, 0].min() >= 0 and picks[:, 3].max() < n
            assert (picks[:, 1:] > picks[:, :-1]).all()

    def test_index_frequencies_are_uniform(self):
        # over 20,000 samples of n = 10, an index is in a sample with
        # probability 4/n (standard error 0.0035) and in a given slot with
        # probability 1/n (standard error 0.0021); both bounds are > 5.5 errors
        n, size = 10, 20000
        picks = evaluate._draw_samples(np.random.default_rng(13), n, size)
        assert np.abs(np.bincount(picks.ravel(), minlength=n) / size - 4 / n).max() < 0.02
        for slot in picks.T:
            assert np.abs(np.bincount(slot, minlength=n) / size - 1 / n).max() < 0.012


def smallest_triangle(samples):
    """(K, 4, 2) -> the smallest area among each sample's four triangles."""
    areas = []
    for skip in range(4):
        tri = np.delete(samples, skip, axis=1)
        t = tri - tri[:, :1]
        areas.append(np.abs(t[:, 1, 0] * t[:, 2, 1] - t[:, 1, 1] * t[:, 2, 0]) / 2)
    return np.min(areas, axis=0)


def four_point_samples(seed, count):
    """Seeded 4-point samples in a 320 px square, dst a jitter of src, every
    triangle of both sides at least 500 px^2."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(0, 320, (count, 4, 2))
    dst = src + rng.uniform(-40, 40, (count, 4, 2))
    keep = (smallest_triangle(src) > 500) & (smallest_triangle(dst) > 500)
    return src[keep], dst[keep]


class TestFourPointHomographies:
    """The closed-form minimal solver of RANSAC's trials."""

    def test_maps_the_four_points(self):
        src, dst = four_point_samples(21, 400)
        h, ok = evaluate._four_point_homographies(src, dst)
        assert ok.all() and len(src) > 200
        for k in range(len(src)):
            assert np.abs(apply_h(h[k], src[k]) - dst[k]).max() < 1e-9

    def test_agrees_with_dlt(self):
        # entries within 1e-9 of the sample's largest one (1.7e-12 measured on such samples)
        src, dst = four_point_samples(22, 400)
        h, _ = evaluate._four_point_homographies(src, dst)
        for k in range(len(src)):
            ref = evaluate.dlt_homography(src[k], dst[k])
            np.testing.assert_allclose(h[k], ref, rtol=0, atol=1e-9 * np.abs(ref).max())

    def test_fits_and_errors_match_reference_bit_for_bit(self):
        src, dst = four_point_samples(24, 200)
        h, _ = evaluate._four_point_homographies(src, dst)
        points, partners = ransac_case(24, 50, 0.5, noise=1.0)
        errors = evaluate._transfer_errors(h, points, partners)
        for k in range(len(src)):
            np.testing.assert_array_equal(h[k], naive_ransac.four_point_homography(src[k], dst[k]))
            np.testing.assert_array_equal(errors[k],
                                          naive_ransac.reprojection_errors(h[k], points, partners))

    def test_bad_samples_rejected_alone(self):
        src, dst = four_point_samples(23, 40)
        src, dst = src[:12], dst[:12]
        src[3, 1] = [np.inf, 5.0]
        dst[5, 2] = [np.nan, 1.0]
        # a homography with h[2, 2] = 0 maps the origin to infinity
        dst[8] = apply_h(np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 3.0], [1e-2, 2e-3, 0.0]]),
                         src[8])
        with np.errstate(all="ignore"):
            h, ok = evaluate._four_point_homographies(src, dst)
        np.testing.assert_array_equal(np.flatnonzero(~ok), [3, 5, 8])
        for k in np.flatnonzero(ok):
            alone, alone_ok = evaluate._four_point_homographies(src[k:k + 1], dst[k:k + 1])
            assert alone_ok[0]
            np.testing.assert_array_equal(h[k], alone[0])


class TestHomographyError:
    def test_exact_estimate(self):
        h = known_homography()
        error, correct = evaluate.homography_error(h, h, (64, 48))
        assert error == 0.0
        assert correct == 1

    def test_four_pixel_translation(self):
        h = np.eye(3)
        shifted = np.eye(3)
        shifted[0, 2] = 4.0
        error, correct = evaluate.homography_error(shifted, h, (64, 48))
        assert error == pytest.approx(4.0, abs=1e-12)
        assert correct == 0

    def test_two_pixel_translation(self):
        h = np.eye(3)
        shifted = np.eye(3)
        shifted[1, 2] = 2.0
        error, correct = evaluate.homography_error(shifted, h, (64, 48))
        assert error == pytest.approx(2.0, abs=1e-12)
        assert correct == 1

    def test_failed_estimate(self):
        error, correct = evaluate.homography_error(None, np.eye(3), (64, 48))
        assert error == float("inf")
        assert correct == 0

    @pytest.mark.parametrize("w", [0.0, 5e-10])
    @pytest.mark.parametrize("side", ["estimate", "ground-truth"])
    def test_corner_sent_to_infinity(self, side, w):
        # w = 1 - x / 64 (+ w) is w at the corners x = 64 of a 65-wide image:
        # below 1e-9, the one rule for a point at infinity
        far = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0 / 64.0, 0.0, 1.0 + w]])
        h_est, h_gt = (far, np.eye(3)) if side == "estimate" else (np.eye(3), far)
        assert evaluate.homography_error(h_est, h_gt, (65, 48)) == (float("inf"), 0)

    def test_monotone_in_epsilon(self):
        h = np.eye(3)
        shifted = np.eye(3)
        shifted[0, 2] = 2.5
        for eps_small, eps_large in [(1.0, 3.0), (2.0, 4.0)]:
            _, he_small = evaluate.homography_error(shifted, h, (32, 32), eps_small)
            _, he_large = evaluate.homography_error(shifted, h, (32, 32), eps_large)
            assert he_small <= he_large


class TestRenderMatches:
    def test_layout_dimensions(self):
        img_a = np.zeros((20, 30))
        img_b = np.zeros((24, 18))
        empty = point_set(np.zeros((0, 2)), np.zeros((0, 2)))
        canvas = evaluate.render_matches(
            img_a, img_b, empty, empty,
            evaluate.MatchSet(np.zeros(0, int), np.zeros(0, int)),
        )
        assert canvas.shape == (24, 48, 3)

    def test_empty_matches_only_points(self):
        img = np.zeros((16, 16))
        a = one_hot_points([[4, 4]])
        b = one_hot_points([[10, 10]])
        canvas = evaluate.render_matches(
            img, img, a, b,
            evaluate.MatchSet(np.zeros(0, int), np.zeros(0, int)),
        )
        assert (canvas[4, 4] != 0).any()
        assert (canvas[10, 16 + 10] != 0).any()
        green = (canvas[:, :, 1] > 0.8) & (canvas[:, :, 0] < 0.3)
        assert green.sum() == 0

    def test_single_match_draws_line_between_endpoints(self):
        img = np.zeros((16, 16))
        a = one_hot_points([[3, 8]])
        b = one_hot_points([[12, 8]])
        matches = evaluate.MatchSet(np.array([0]), np.array([0]))
        canvas = evaluate.render_matches(img, img, a, b, matches, np.array([True]))
        red = (canvas[:, :, 0] > 0.8) & (canvas[:, :, 1] < 0.4)
        assert red[8, 3] and red[8, 16 + 12]
        green = (canvas[:, :, 1] > 0.8) & (canvas[:, :, 0] < 0.3)
        assert green[8, 10]
