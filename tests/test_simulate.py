import numpy as np
import pytest
from scipy import ndimage  # the reference filters; the program itself does not import scipy

from conftest import shape_scenes
from pointprops import simulate


def checker(shape=(32, 32), period=8):
    rows, cols = np.indices(shape)
    return (((rows // period) + (cols // period)) % 2).astype(float)


class TestPhotometricSampling:
    def test_mild_level_restricted_to_three_kinds(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(1000):
            for op in simulate.sample_photometric(rng, "illum_mild"):
                seen.add(op.kind)
        assert seen <= {"blur", "contrast", "shadow"}
        assert seen == {"blur", "contrast", "shadow"}

    def test_full_level_covers_all_seven_kinds(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(1000):
            for op in simulate.sample_photometric(rng, "illum_full"):
                seen.add(op.kind)
        assert seen == set(simulate.ILLUM_KINDS)

    def test_deterministic_per_seed(self):
        a = simulate.sample_photometric(np.random.default_rng(7), "illum_full")
        b = simulate.sample_photometric(np.random.default_rng(7), "illum_full")
        assert a == b

    def test_spec_length_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            assert 1 <= len(simulate.sample_photometric(rng, "illum_full")) <= 4

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            simulate.sample_photometric(np.random.default_rng(0), "illum_extreme")


class TestApplyPhotometric:
    def test_invert_quarter(self):
        img = np.full((8, 8), 0.25)
        out = simulate.apply_photometric(img, [simulate._op("invert")])
        np.testing.assert_allclose(out, 0.75, atol=1e-15)

    def test_colour_kinds_are_identities(self):
        img = np.random.default_rng(4).random((8, 8))
        for op in (simulate._op("grayscale_mix", weight=0.7),
                   simulate._op("channel_shuffle", order=(2, 0, 1))):
            np.testing.assert_array_equal(simulate.apply_photometric(img, [op]), img)

    def test_contrast_fixes_mid_gray(self):
        img = np.full((6, 6), 0.5)
        for strength in (-0.5, -0.2, 0.0, 0.3, 0.5):
            out = simulate.apply_photometric(
                img, [simulate._op("contrast", strength=strength)]
            )
            np.testing.assert_allclose(out, 0.5, atol=1e-15)

    def test_salt_pepper_deterministic_and_bounded(self):
        img = np.full((32, 32), 0.5)
        op = simulate._op("salt_pepper", fraction=0.02, seed=99)
        a = simulate.apply_photometric(img, [op])
        b = simulate.apply_photometric(img, [op])
        np.testing.assert_array_equal(a, b)
        changed = (a != 0.5).mean()
        assert changed <= 0.05
        assert set(np.unique(a)) <= {0.0, 0.5, 1.0}

    def test_shadow_darkens_only(self):
        rng = np.random.default_rng(5)
        img = rng.random((24, 24))
        op = simulate._op("shadow", polygons=simulate._sample_shadow_polygons(rng))
        out = simulate.apply_photometric(img, [op])
        assert np.all(out <= img + 1e-12)
        assert (out < img - 1e-9).any()

    def test_output_range_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(250):
            img = rng.random((12, 12))
            spec = simulate.sample_photometric(rng, "illum_full")
            out = simulate.apply_photometric(img, spec)
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def reference_blur(img, mode, radius):
    """The blur record as scipy.ndimage computes it."""
    if mode == "gaussian":
        return ndimage.gaussian_filter(img, sigma=0.5 * radius, mode="nearest")
    if mode == "average":
        return ndimage.uniform_filter(img, size=2 * radius + 1, mode="nearest")
    return ndimage.median_filter(img, size=2 * radius + 1, mode="nearest")


def simulated_view(shape, seed):
    """A view as training or eval sees it, of a mosaic of shape scenes."""
    tiles = shape_scenes(seed, 20, 64)
    mosaic = np.block([tiles[5 * i:5 * i + 5] for i in range(4)])  # 256 x 320
    return simulate.make_scene(mosaic[:shape[0], :shape[1]], 1, seed, 0).images[0]


def blur_inputs(shape, rng):
    """Random, tied, signed-zero and simulated inputs of one shape. Mixed
    zeros everywhere only on small images: each zero median among them takes
    the quickselect path, one window at a time. At 240x320 the median runs
    in several bands, the last one partial."""
    inputs = {"random": rng.random(shape), "ties": rng.integers(0, 3, shape) / 2.0}
    signs = rng.random(shape)
    dense = np.where(signs < 0.5, 0.0, -0.0)
    dense[signs > 0.8] = rng.random(shape)[signs > 0.8]
    if dense.size <= 64 * 64:
        inputs["signed zeros"] = dense
    sparse = rng.random(shape)
    sparse[signs < 0.05] = 0.0
    sparse[signs > 0.95] = -0.0
    inputs["some signed zeros"] = sparse
    if min(shape) >= 8:
        inputs["view"] = simulated_view(shape, int(rng.integers(100)))
    return inputs


class TestBlurMatchesScipy:
    """Every blur record gives scipy.ndimage's bits: the views, and so the
    checkpoints and eval rows, do not depend on which library blurred them."""

    SHAPES = [(64, 64), (240, 320), (24, 24), (8, 8), (1, 1), (1, 9), (9, 1), (2, 3), (5, 14)]

    @pytest.mark.parametrize("mode", ["gaussian", "average", "median"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_bit_identical(self, mode, radius):
        rng = np.random.default_rng(radius)
        op = simulate._op("blur", mode=mode, radius=radius)
        for shape in self.SHAPES:
            for kind, img in blur_inputs(shape, rng).items():
                got = simulate._apply_one(img, op)
                want = reference_blur(img, mode, radius)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.flags.c_contiguous
                assert np.array_equal(bits(got), bits(want)), (shape, kind)


class TestHomographySampling:
    def test_degenerate_sampling_gives_identity(self):
        rng = np.random.default_rng(0)
        h = simulate.sample_homography(rng, max_rotation_deg=1e-9, perturb=0.0,
                                       size=(48, 64))
        np.testing.assert_allclose(h, np.eye(3), atol=1e-9)

    def test_rotation_cap_respected(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            h = simulate.sample_homography(rng, 45.0, 0.08, size=(48, 64))
            assert simulate.decomposed_rotation_deg(h, (48, 64)) < 45.0

    def test_invertibility(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            h = simulate.sample_homography(rng, 90.0, 0.15, size=(40, 40))
            np.testing.assert_allclose(h @ np.linalg.inv(h), np.eye(3), atol=1e-10)
            assert h[2, 2] == pytest.approx(1.0)
            assert abs(np.linalg.det(h)) > 1e-6

    def test_level_ranges(self):
        rng = np.random.default_rng(3)
        h = simulate.sample_homography_for_level(rng, "viewpoint_medium", (32, 32))
        assert h.shape == (3, 3)
        with pytest.raises(ValueError):
            simulate.sample_homography_for_level(rng, "viewpoint_extreme", (32, 32))

    def test_parameter_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            simulate.sample_homography(rng, 0.0, 0.1)
        with pytest.raises(ValueError):
            simulate.sample_homography(rng, 45.0, 0.5)


class TestWarpImage:
    def test_identity(self):
        img = checker()
        out, mask = simulate.warp_image(img, np.eye(3))
        np.testing.assert_allclose(out, img, atol=1e-12)
        assert mask.all()

    def test_integer_translation_exact(self):
        img = np.random.default_rng(5).random((16, 16))
        h = np.eye(3)
        h[0, 2] = 5.0  # shift +5 columns
        out, mask = simulate.warp_image(img, h)
        np.testing.assert_allclose(out[:, 5:], img[:, :-5], atol=1e-12)
        assert not mask[:, :5].any()
        assert mask[:, 5:].all()

    def test_round_trip_interior(self):
        rng = np.random.default_rng(6)
        img = simulate.apply_photometric(
            checker((40, 40), 5), [simulate._op("blur", mode="gaussian", radius=2)]
        )
        for _ in range(10):
            h = simulate.sample_homography(rng, 30.0, 0.05, size=img.shape)
            once, mask1 = simulate.warp_image(img, h)
            back, mask2 = simulate.warp_image(once, np.linalg.inv(h))
            interior = mask1 & mask2
            interior[:4] = interior[-4:] = False
            interior[:, :4] = interior[:, -4:] = False
            assert interior.any()
            assert np.abs(back - img)[interior].mean() < 0.05


class TestMapPoints:
    def test_identity(self):
        pts = np.array([[1.0, 2.0], [30.0, 17.0]])
        out, valid = simulate.map_points(pts, np.eye(3), (64, 48))
        np.testing.assert_allclose(out, pts)
        assert valid.all()

    def test_translation_out_of_bounds(self):
        h = np.eye(3)
        h[0, 2] = -10.0
        out, valid = simulate.map_points([[5.0, 0.0]], h, (640, 480))
        assert out[0, 0] == pytest.approx(-5.0)
        assert not valid[0]

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(5, 35, size=(50, 2))
        for _ in range(20):
            h = simulate.sample_homography(rng, 60.0, 0.12, size=(40, 40))
            fwd, _ = simulate.map_points(pts, h, (10_000, 10_000))
            back, _ = simulate.map_points(fwd, np.linalg.inv(h), (10_000, 10_000))
            np.testing.assert_allclose(back, pts, atol=1e-8)

    def test_consistency_with_warp(self):
        def bilinear(img, x, y):
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            x1, y1 = min(x0 + 1, img.shape[1] - 1), min(y0 + 1, img.shape[0] - 1)
            tx, ty = x - x0, y - y0
            top = (1 - tx) * img[y0, x0] + tx * img[y0, x1]
            bottom = (1 - tx) * img[y1, x0] + tx * img[y1, x1]
            return (1 - ty) * top + ty * bottom

        # smooth field so the double-interpolation error stays bilinear-scale;
        # skip points whose interpolation stencil touches invalid warp pixels
        img = simulate.apply_photometric(
            checker((40, 40), 10), [simulate._op("blur", mode="gaussian", radius=3)]
        )
        rng = np.random.default_rng(8)
        h = simulate.sample_homography(rng, 20.0, 0.04, size=img.shape)
        warped, mask = simulate.warp_image(img, h)
        cols, rows = np.meshgrid(np.arange(40), np.arange(40))
        pts = np.stack([cols.ravel(), rows.ravel()], axis=1).astype(float)
        mapped, valid = simulate.map_points(pts, h, (40, 40))
        deviations = []
        for (x, y), (mx, my), ok in zip(pts.astype(int), mapped, valid):
            if not ok:
                continue
            x0, y0 = int(np.floor(mx)), int(np.floor(my))
            x1, y1 = min(x0 + 1, 39), min(y0 + 1, 39)
            if not (mask[y0, x0] and mask[y0, x1] and mask[y1, x0] and mask[y1, x1]):
                continue
            deviations.append(abs(bilinear(warped, mx, my) - img[y, x]))
        assert deviations
        assert np.mean(deviations) < 0.02


class TestMakeScene:
    def test_shapes_and_determinism(self):
        img = checker((24, 24), 6)
        a = simulate.make_scene(img, 3, seed=11, scene_id=5)
        b = simulate.make_scene(img, 3, seed=11, scene_id=5)
        assert a.num_views == 3
        assert a.map_rows.shape == (3, 24, 24)
        for ia, ib in zip(a.images, b.images):
            np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_views_differ_across_indices_and_scene_ids(self):
        img = checker((24, 24), 6)
        scene = simulate.make_scene(img, 3, seed=11, scene_id=5)
        assert not np.array_equal(scene.images[0], scene.images[1])
        other = simulate.make_scene(img, 3, seed=11, scene_id=6)
        assert not np.array_equal(scene.images[0], other.images[0])

    def test_valid_points_map_inside(self):
        img = checker((24, 24), 6)
        scene = simulate.make_scene(img, 4, seed=3, scene_id=0)
        assert scene.valid.any()
        for j in range(4):
            rr = scene.map_rows[j][scene.valid[j]]
            cc = scene.map_cols[j][scene.valid[j]]
            assert rr.min() >= 0 and rr.max() < 24
            assert cc.min() >= 0 and cc.max() < 24

    def test_make_pair(self):
        img = checker((24, 24), 6)
        original, transformed, hom = simulate.make_pair(
            img, np.random.default_rng(9), "illum_mild", "viewpoint_medium"
        )
        np.testing.assert_array_equal(original, img)
        assert transformed.shape == img.shape
        assert hom.shape == (3, 3)
        assert not np.array_equal(transformed, img)
