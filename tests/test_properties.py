import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import naive_margins
from conftest import FieldOutput
from pointprops import em, properties
from pointprops.config import PropertyConfig


def paper_scale_config():
    return PropertyConfig(rad=4, n_min=200, n_max=400, m_p=1.0, m_n=0.2, alpha=1.0)


def sparsity_brute_force(y, rad):
    """O(N^2) pairwise-distance reference for the local sparsity filter."""
    y = np.asarray(y, dtype=bool)
    pts = np.argwhere(y)
    s_loc = np.zeros_like(y)
    for r, c in pts:
        alone = True
        for r2, c2 in pts:
            if (r, c) != (r2, c2) and max(abs(r - r2), abs(c - c2)) <= rad:
                alone = False
                break
        s_loc[r, c] = alone
    return s_loc


def isolated(y, rad):
    """Selected points with no other selected point within Chebyshev ``rad``."""
    y = np.asarray(y, dtype=bool)
    return y & ~(properties.neighborhood_max(y.astype(float), rad) > 0.0)


class TestNeighborhoodMax:
    @staticmethod
    def holed_filter(values, rad):
        """The 2-D max filter over the (2 rad + 1)^2 square without its center."""
        ndimage = pytest.importorskip("scipy.ndimage")
        footprint = np.ones((2 * rad + 1, 2 * rad + 1), dtype=bool)
        footprint[rad, rad] = False
        return ndimage.maximum_filter(values, footprint=footprint, mode="constant",
                                      cval=-np.inf)

    @pytest.mark.parametrize("rad", [1, 2, 3, 4, 5, 6])
    def test_equals_the_holed_footprint_filter(self, rad):
        rng = np.random.default_rng(rad)
        for shape in [(1, 1), (1, 9), (9, 1), (2, 3), (12, 12), (17, 40), (240, 320)]:
            plateaus = np.kron(rng.integers(0, 3, (shape[0] // 3 + 1, shape[1] // 3 + 1)),
                               np.ones((3, 3)))[:shape[0], :shape[1]]
            maps = {"random": rng.random(shape),
                    "tied": rng.integers(0, 3, shape).astype(float),
                    "plateaus": plateaus,
                    # the E-step's quorum mask: -inf where too few views see a pixel
                    "-inf": np.where(rng.random(shape) < 0.4, -np.inf, rng.random(shape)),
                    "all -inf": np.full(shape, -np.inf)}
            for kind, values in maps.items():
                got = properties.neighborhood_max(values, rad)
                want = self.holed_filter(values, rad)
                assert got.shape == shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (shape, kind)
                assert np.array_equal(properties.select_local_maxima(values, rad),
                                      values > want), (shape, kind)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError, match="rad must be >= 1"):
            properties.neighborhood_max(np.zeros((4, 4)), 0)


class TestLocalSparsity:
    def test_single_point_satisfied(self):
        y = np.zeros((9, 9), dtype=bool)
        y[4, 6] = True
        np.testing.assert_array_equal(isolated(y, rad=3), y)

    def test_two_points_at_exactly_rad_conflict(self):
        y = np.zeros((12, 12), dtype=bool)
        y[2, 2] = True
        y[2, 2 + 4] = True
        assert not isolated(y, rad=4).any()

    def test_two_points_just_outside_rad(self):
        y = np.zeros((12, 12), dtype=bool)
        y[2, 2] = True
        y[2, 7] = True
        np.testing.assert_array_equal(isolated(y, rad=4), y)

    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            y = rng.random((12, 12)) < 0.12
            np.testing.assert_array_equal(isolated(y, rad=2), sparsity_brute_force(y, rad=2))


def space_total(m):
    """Exact number of masks over m candidates in the paper-scale count window."""
    cfg = paper_scale_config()
    return em.log_count_sample_space(m, cfg.n_min, cfg.n_max).exact[0]


class TestCountSparsity:
    """The count window (n_min, n_max) is exclusive at both ends: the reduced
    sample space holds masks of n_min + 1 .. n_max - 1 points."""

    def test_inside_range(self):
        assert space_total(300) == sum(math.comb(300, n) for n in range(201, 301))

    def test_lower_boundary_excluded(self):
        with pytest.raises(em.EmptySampleSpaceError):
            space_total(200)

    def test_just_below_upper_bound(self):
        assert space_total(399) == sum(math.comb(399, n) for n in range(201, 400))

    def test_upper_boundary_excluded(self):
        assert space_total(400) == sum(math.comb(400, n) for n in range(201, 400))


def view_mean(probs, valid=None):
    """em.repeatability of one canonical point seen at pixel (0, 0) of each view."""
    probs = np.asarray(probs, dtype=float)
    j = len(probs)
    valid = np.ones(j, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    scene = SimpleNamespace(
        map_rows=np.zeros((j, 1, 1), dtype=int),
        map_cols=np.zeros((j, 1, 1), dtype=int),
        valid=valid.reshape(j, 1, 1),
    )
    outputs = [SimpleNamespace(prob_map=np.full((1, 1), p)) for p in probs]
    r, valid_count = em.repeatability(scene, outputs)
    assert valid_count[0, 0] == valid.sum()
    return float(r[0, 0])


class TestRepeatability:
    def test_constant(self):
        assert view_mean([0.5, 0.5, 0.5]) == 0.5

    def test_two_point_mean(self):
        assert view_mean([0.2, 0.8]) == pytest.approx(0.5, abs=1e-15)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(7)
        draws = rng.uniform(0.01, 0.99, size=10)
        reference = sum(float(v) for v in draws) / 10.0
        assert view_mean(draws) == pytest.approx(reference, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        draws = rng.uniform(0.01, 0.99, size=6)
        base = view_mean(draws)
        for _ in range(20):
            assert view_mean(rng.permutation(draws)) == pytest.approx(base, abs=1e-15)

    def test_validity_mask(self):
        assert view_mean([0.2, 0.9, 0.8], [True, False, True]) == pytest.approx(0.5)
        # a point no view observes has repeatability 0
        assert view_mean([0.5], [False]) == 0.0


def transcribe_margin(i, desc_per_image, m_p, m_n, lam):
    """Independent scalar transcription of the margin formula."""
    j_images = len(desc_per_image)
    n = len(desc_per_image[0])
    total = 0.0
    for j in range(j_images):
        for jp in range(j_images):
            if jp == j:
                continue
            pos = min(m_p, float(np.dot(desc_per_image[j][i], desc_per_image[jp][i])))
            neg = 0.0
            for ip in range(n):
                if ip == i:
                    continue
                neg += max(m_n, float(np.dot(desc_per_image[j][i], desc_per_image[jp][ip])))
            total += pos - lam / n * neg
    return total / (j_images * (j_images - 1))


def grid_scene(desc_fields):
    """Scene stub: identity correspondence, everything valid."""
    h, w = desc_fields[0].shape[:2]
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    j = len(desc_fields)

    class Scene:
        outputs = [FieldOutput(np.full((h, w), 0.5), f) for f in desc_fields]
        map_rows = np.broadcast_to(rows, (j, h, w))
        map_cols = np.broadcast_to(cols, (j, h, w))
        valid = np.ones((j, h, w), dtype=bool)
        num_views = j

    return Scene()


class TestDiscriminabilityMargin:
    def test_orthogonal_descriptors_paper_constants(self):
        # 300 one-hot descriptors repeated in two views: positive sims 1,
        # every negative sim 0 <= m_n, so
        # h = m_p - neg_weight * m_n * 299 / 300
        cfg = paper_scale_config()
        n = 300
        eye = np.eye(n)
        h = properties.margins(n, [eye, eye], [np.ones(n, bool)] * 2, cfg)
        expected = 1.0 - 0.025 * 0.2 * 299.0 / 300.0
        np.testing.assert_allclose(h, expected, atol=1e-12)
        np.testing.assert_allclose(h, 0.9950166666666667, atol=1e-12)

    def test_identical_descriptors_paper_constants(self):
        # all similarities 1: h = m_p - neg_weight * 299 / 300
        cfg = paper_scale_config()
        n = 300
        same = np.tile(np.eye(1, 5, 0), (n, 1))
        h = properties.margins(n, [same, same], [np.ones(n, bool)] * 2, cfg)
        expected = 1.0 - 0.025 * 299.0 / 300.0
        np.testing.assert_allclose(h, expected, atol=1e-12)
        np.testing.assert_allclose(h, 0.9750833333333334, atol=1e-12)

    def test_matches_scalar_transcription(self):
        def unit(v):
            v = np.asarray(v, dtype=float)
            return v / np.linalg.norm(v)

        image1 = np.array([unit([1, 0, 0]), unit([0, 1, 0])])
        image2 = np.array([unit([1, 1, 0]), unit([0, 1, 1])])
        cfg = PropertyConfig(rad=1, n_min=0, n_max=5, m_p=0.9, m_n=0.1, neg_weight=0.7)
        h = properties.margins(2, [image1, image2], [np.ones(2, bool)] * 2, cfg)
        for i in range(2):
            ref = transcribe_margin(i, [image1, image2], 0.9, 0.1, 0.7)
            assert h[i] == pytest.approx(ref, abs=1e-12)

    def test_point_op_against_field_fixture(self):
        rng = np.random.default_rng(3)
        fields = []
        for _ in range(2):
            f = rng.normal(size=(4, 5, 3))
            f /= np.linalg.norm(f, axis=-1, keepdims=True)
            fields.append(f)
        scene = grid_scene(fields)
        yhat = np.zeros((4, 5), dtype=bool)
        yhat[0, 1] = yhat[2, 3] = yhat[3, 0] = True
        cfg = PropertyConfig(rad=1, n_min=0, n_max=5, m_p=0.9, m_n=-0.2, neg_weight=0.5)
        rows, cols = np.nonzero(yhat)
        gathered, valid = properties.gather_selected_descriptors(
            rows, cols, scene.outputs, scene
        )
        h = properties.margins(len(rows), gathered, valid, cfg)
        desc = [f[yhat] for f in fields]
        for idx in range(len(rows)):
            ref = transcribe_margin(idx, desc, 0.9, -0.2, 0.5)
            assert h[idx] == pytest.approx(ref, abs=1e-12)

    def test_matches_per_pair_reference(self):
        rng = np.random.default_rng(12)
        seen = {"empty view": 0, "point in <= 1 view": 0, "negative m_n": 0}
        for draw in range(240):
            j, n, d = int(rng.integers(2, 7)), int(rng.integers(2, 10)), int(rng.integers(1, 6))
            desc = rng.normal(size=(j, n, d))
            desc /= np.linalg.norm(desc, axis=-1, keepdims=True)
            valid = rng.random((j, n)) < rng.uniform(0.2, 1.0)
            if draw % 3 == 0:
                valid[rng.integers(j)] = False  # a view that observes no selected point
            m_p = float(rng.uniform(0.5, 1.0))
            m_n = float(rng.uniform(-0.9, m_p - 0.05))
            cfg = PropertyConfig(rad=1, n_min=0, n_max=n + 2, m_p=m_p, m_n=m_n,
                                 neg_weight=float(rng.uniform(0.05, 1.0)))
            seen["empty view"] += int((~valid.any(axis=1)).any())
            seen["point in <= 1 view"] += int((valid.sum(axis=0) <= 1).any())
            seen["negative m_n"] += int(m_n < 0)
            # unobserved rows hold finite junk, which both sides must ignore
            desc[~valid] = rng.normal(size=(int((~valid).sum()), d))
            weights = rng.normal(size=n)
            args = (list(desc), list(valid)) if draw % 2 else (desc, valid)

            h = properties.margins(n, *args, cfg)
            ref_h = naive_margins.margins(desc, valid, m_p, m_n, cfg.neg_weight, cfg.margin_max)
            np.testing.assert_allclose(h, ref_h, rtol=0, atol=1e-12)
            grads = properties.margin_gradients(*args, cfg, weights)
            ref_grads = naive_margins.margin_gradients(desc, valid, m_p, m_n, cfg.neg_weight,
                                                       weights)
            assert grads.shape == (j, n, d)
            np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-12)
            assert not grads[~valid].any()
        assert min(seen.values()) >= 20, seen

    def test_walk_never_forms_the_whole_gram_matrix(self):
        # a (J*n)^2 float Gram matrix at J = 10, n = 300 alone is 69 MiB;
        # the per-view (n, J, n) block is 6.9 MiB
        rng = np.random.default_rng(4)
        j, n = 10, 300
        desc = rng.normal(size=(j, n, 16))
        desc /= np.linalg.norm(desc, axis=-1, keepdims=True)
        valid = rng.random((j, n)) < 0.8
        cfg = paper_scale_config()
        for call in (lambda: properties.margins(n, desc, valid, cfg),
                     lambda: properties.margin_gradients(desc, valid, cfg, rng.random(n))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40 * 2**20, peak

    def test_degenerate_set_rejected(self):
        cfg = paper_scale_config()
        with pytest.raises(ValueError):
            properties.margins(1, [np.eye(1)], [np.ones(1, bool)], cfg)

    @pytest.mark.parametrize("count", [2, 4])
    def test_count_must_match_descriptor_rows(self, count):
        # 3 rows per view: a smaller count would read the wrong diagonal, a
        # larger one would index past the rows
        cfg = paper_scale_config()
        desc = np.eye(3)
        with pytest.raises(ValueError, match=f"yhat_count {count} does not match the 3 "
                                             "descriptor rows per view"):
            properties.margins(count, [desc, desc], [np.ones(3, bool)] * 2, cfg)

    def test_margin_bound(self):
        # the implemented normalizer admits at most margin_max + neg_weight*m_n/n
        rng = np.random.default_rng(11)
        cfg = PropertyConfig(rad=1, n_min=0, n_max=40, m_p=0.8, m_n=0.2, neg_weight=0.5)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            fields = []
            for _ in range(3):
                f = rng.normal(size=(n, 4))
                f /= np.linalg.norm(f, axis=-1, keepdims=True)
                fields.append(f)
            h = properties.margins(n, fields, [np.ones(n, bool)] * 3, cfg)
            bound = cfg.margin_max + cfg.neg_weight * cfg.m_n / n
            assert np.all(h <= bound + 1e-12)


class TestDiscriminabilityProb:
    def test_maximum(self):
        cfg = paper_scale_config()
        assert properties.discriminability_prob(cfg.margin_max, cfg) == pytest.approx(1.0)

    def test_unit_drop(self):
        cfg = PropertyConfig(alpha=1.0)
        value = properties.discriminability_prob(cfg.margin_max - 1.0, cfg)
        assert value == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_monotone(self):
        cfg = PropertyConfig(alpha=1.0)
        lo = properties.discriminability_prob(cfg.margin_max - 1.0, cfg)
        mid = properties.discriminability_prob(cfg.margin_max - 0.5, cfg)
        hi = properties.discriminability_prob(cfg.margin_max, cfg)
        assert lo < mid < hi

    def test_log_identity_and_range(self):
        rng = np.random.default_rng(5)
        cfg = PropertyConfig(alpha=1.7)
        h = cfg.margin_max - rng.uniform(0.0, 3.0, size=1000)
        c = properties.discriminability_prob(h, cfg)
        assert np.all((c > 0.0) & (c <= 1.0))
        np.testing.assert_allclose(np.log(c), cfg.alpha * (h - cfg.margin_max), atol=1e-12)


class TestLogLikelihoodItem:
    def test_background_point(self):
        cfg = PropertyConfig()
        value = properties.log_likelihood_item(0.0, 0.5, cfg.margin_max, cfg)
        assert value == pytest.approx(np.log(0.5), abs=1e-15)

    def test_near_zero_maximum(self):
        cfg = PropertyConfig()
        value = properties.log_likelihood_item(1.0, 1.0, cfg.margin_max, cfg)
        assert value == pytest.approx(np.log(1.0 - 1e-7), abs=1e-12)
        assert abs(value) < 1.1e-7

    def test_arithmetic_fixture(self):
        # 0.5*log(0.25) + 0.5*log(0.75) + 0.5*(-0.1), evaluated independently
        cfg = PropertyConfig(alpha=1.0)
        expected = 0.5 * np.log(0.25) + 0.5 * np.log(0.75) + 0.5 * (-0.1)
        value = properties.log_likelihood_item(0.5, 0.25, cfg.margin_max - 0.1, cfg)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(-0.8869882167858358, abs=1e-12)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(13)
        cfg = PropertyConfig(alpha=2.0)
        p = rng.uniform(0, 1, size=2000)
        r = rng.uniform(0, 1, size=2000)
        h = cfg.margin_max - rng.uniform(-0.5, 3.0, size=2000)  # includes overshoot
        assert np.all(properties.log_likelihood_item(p, r, h, cfg) <= 0.0)
