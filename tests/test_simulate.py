import warnings

import numpy as np
import pytest

import naive_photometric
from conftest import shape_scenes
from pointprops import simulate


def checker(shape=(32, 32), period=8):
    rows, cols = np.indices(shape)
    return (((rows // period) + (cols // period)) % 2).astype(float)


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


class ScriptedRng:
    """Hands out queued draws first, then the draws of ``rest``, and records
    each call: a test chooses the transforms ``photometric`` applies."""

    def __init__(self, *draws, rest=None):
        self.draws, self.rest, self.calls = list(draws), rest, []

    def __getattr__(self, method):
        def draw(*args, **kwargs):
            self.calls.append((method, args))
            if self.draws:
                return self.draws.pop(0)
            return getattr(self.rest, method)(*args, **kwargs)
        return draw


def photometric_once(img, kind, *params, rest=None):
    """``img`` under the one ``illum_full`` transform ``kind``, with its
    parameters from ``params`` and then from ``rest``."""
    index = simulate.ILLUMINATION_KINDS["illum_full"].index(kind)
    rng = ScriptedRng(1, index, *params, rest=rest)
    out = simulate.photometric(img, rng, "illum_full")
    assert rng.draws == []
    return out


class TestPhotometricSampling:
    SHAPES = [(1, 1), (1, 9), (9, 1), (2, 3), (5, 14), (12, 12), (24, 24), (37, 23)]

    @pytest.mark.parametrize("level", ["illum_mild", "illum_full"])
    def test_matches_the_two_phase_sampler(self, level):
        """Drawing and applying each transform at once gives the bits of
        drawing the whole list first, and leaves the generator in the same
        state: the colour kinds' draws are taken although they change
        nothing."""
        seen = set()
        for seed in range(300):
            shape = self.SHAPES[seed % len(self.SHAPES)]
            img = (np.random.default_rng(seed).random(shape), np.zeros(shape),
                   np.full(shape, 0.5), np.ones(shape))[seed % 4]
            kept = img.copy()
            one, two = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            got = simulate.photometric(img, one, level)
            spec = naive_photometric.sample(two, level)
            want = naive_photometric.apply(img, spec)
            assert got.shape == want.shape and np.array_equal(bits(got), bits(want)), seed
            assert one.bit_generator.state == two.bit_generator.state, seed
            np.testing.assert_array_equal(img, kept)
            seen.update(kind for kind, _ in spec)
        assert seen == set(simulate.ILLUMINATION_KINDS[level])

    def test_mild_level_restricted_to_three_kinds(self):
        """A dark image stays dark under blur, contrast and shadow; invert or
        salt would lift pixels past 0.5, and ``illum_full`` does."""
        img = np.full((16, 16), 0.25)
        rng = np.random.default_rng(0)
        mild = [simulate.photometric(img, rng, "illum_mild").max() for _ in range(1000)]
        full = [simulate.photometric(img, rng, "illum_full").max() for _ in range(1000)]
        assert max(mild) < 0.5
        assert sum(m > 0.5 for m in full) > 100

    def test_full_level_covers_all_seven_kinds(self):
        img = np.random.default_rng(3).random((16, 16))
        out = {kind: photometric_once(img, kind, rest=np.random.default_rng(4))
               for kind in simulate.ILLUMINATION_KINDS["illum_full"]}
        assert len(out) == 7
        assert out["blur"].std() < 0.9 * img.std()
        np.testing.assert_array_equal(out["channel_shuffle"], img)
        np.testing.assert_array_equal(out["grayscale_mix"], img)
        assert not np.array_equal(out["contrast"], img)
        np.testing.assert_allclose(out["invert"], 1.0 - img, atol=1e-15)
        salted = out["salt_pepper"] != img
        assert salted.any() and set(np.unique(out["salt_pepper"][salted])) <= {0.0, 1.0}
        assert np.all(out["shadow"] <= img) and (out["shadow"] < img).any()

    def test_deterministic_per_seed(self):
        img = np.random.default_rng(7).random((12, 10))
        a = simulate.photometric(img, np.random.default_rng(7), "illum_full")
        b = simulate.photometric(img, np.random.default_rng(7), "illum_full")
        assert np.array_equal(bits(a), bits(b))

    def test_spec_length_bounded(self):
        """1..3 transforms, as many as drawn: an odd count of inverts inverts."""
        img = np.full((4, 4), 0.25)
        index = simulate.ILLUMINATION_KINDS["illum_full"].index("invert")
        for count in (1, 2, 3):
            rng = ScriptedRng(count, *[index] * count)
            out = simulate.photometric(img, rng, "illum_full")
            assert rng.calls[0] == ("integers", (1, 4)) and len(rng.calls) == 1 + count
            np.testing.assert_allclose(out, 0.75 if count % 2 else 0.25, atol=1e-15)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="illum_extreme"):
            simulate.photometric(np.zeros((4, 4)), np.random.default_rng(0), "illum_extreme")


class TestApplyPhotometric:
    def test_invert_quarter(self):
        out = photometric_once(np.full((8, 8), 0.25), "invert")
        np.testing.assert_allclose(out, 0.75, atol=1e-15)

    def test_colour_kinds_are_identities(self):
        img = np.random.default_rng(4).random((8, 8))
        np.testing.assert_array_equal(photometric_once(img, "grayscale_mix", 0.7), img)
        np.testing.assert_array_equal(
            photometric_once(img, "channel_shuffle", np.array([2, 0, 1])), img)

    def test_contrast_fixes_mid_gray(self):
        img = np.full((6, 6), 0.5)
        for strength in (-0.5, -0.2, 0.0, 0.3, 0.5):
            out = photometric_once(img, "contrast", strength)
            np.testing.assert_allclose(out, 0.5, atol=1e-15)

    def test_salt_pepper_deterministic_and_bounded(self):
        a, b = np.full((32, 32), 0.5), np.full((32, 32), 0.5)
        simulate._salt_pepper(a, np.random.default_rng(99))
        simulate._salt_pepper(b, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)
        changed = (a != 0.5).mean()
        assert 0.0 < changed <= 0.05
        assert set(np.unique(a)) <= {0.0, 0.5, 1.0}

    def test_shadow_darkens_only(self):
        rng = np.random.default_rng(5)
        img = rng.random((24, 24))
        out = img.copy()
        simulate._shadow(out, rng)
        assert np.all(out <= img + 1e-12)
        assert (out < img - 1e-9).any()

    def test_output_range_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(250):
            img = rng.random((12, 12))
            out = simulate.photometric(img, rng, "illum_full")
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0


BLURS = {"gaussian": lambda img, radius: simulate.gaussian_blur(img, 0.5 * radius),
         "average": lambda img, radius: simulate.box_blur(img, 2 * radius + 1),
         "median": lambda img, radius: simulate.median_blur(img, 2 * radius + 1)}


def reference_blur(img, mode, radius):
    """The blur transform as scipy.ndimage computes it."""
    ndimage = pytest.importorskip("scipy.ndimage")  # the program itself does not import scipy
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
    """Every blur kernel gives scipy.ndimage's bits: the views, and so the
    checkpoints and eval rows, do not depend on which library blurred them."""

    SHAPES = [(64, 64), (240, 320), (24, 24), (8, 8), (1, 1), (1, 9), (9, 1), (2, 3), (5, 14)]

    @pytest.mark.parametrize("mode", ["gaussian", "average", "median"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_bit_identical(self, mode, radius):
        rng = np.random.default_rng(radius)
        for shape in self.SHAPES:
            for kind, img in blur_inputs(shape, rng).items():
                want = reference_blur(img, mode, radius)
                got = BLURS[mode](img, radius)
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

    def test_side_below_two_pixels_rejected_by_size(self):
        rng = np.random.default_rng(5)
        for size in [(1, 1), (1, 5), (5, 1)]:
            with pytest.raises(ValueError, match=f"{size[0]}x{size[1]}"):
                simulate.sample_homography(rng, 45.0, 0.1, size=size)
        assert simulate.sample_homography(rng, 45.0, 0.1, size=(2, 2)).shape == (3, 3)

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
        img = simulate.gaussian_blur(checker((40, 40), 5), 1.0)
        for _ in range(10):
            h = simulate.sample_homography(rng, 30.0, 0.05, size=img.shape)
            once, mask1 = simulate.warp_image(img, h)
            back, mask2 = simulate.warp_image(once, np.linalg.inv(h))
            interior = mask1 & mask2
            interior[:4] = interior[-4:] = False
            interior[:, :4] = interior[:, -4:] = False
            assert interior.any()
            assert np.abs(back - img)[interior].mean() < 0.05


class TestProjectPoints:
    def test_identity(self):
        pts = np.array([[1.5, 2.0], [30.0, -17.25]])
        np.testing.assert_array_equal(simulate.project_points(pts, np.eye(3)), pts)

    @pytest.mark.parametrize("w, finite", [
        (np.nextafter(1e-9, 0.0), False),
        (-np.nextafter(1e-9, 0.0), False),
        (1e-9, True),
        (np.nextafter(1e-9, 1.0), True),
        (-np.nextafter(1e-9, 1.0), True),
    ])
    def test_points_at_infinity_are_nan(self, w, finite):
        # the third row sends (x, y) to w = x, so only the first point is at |w| ~ 1e-9
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        out = simulate.project_points([[w, 3.0], [2.0, 3.0]], h)
        assert np.isfinite(out[0]).all() == finite
        assert np.isnan(out[0]).all() != finite
        np.testing.assert_array_equal(out[1], [1.0, 1.5])
        _, valid = simulate.map_points([[w, 3.0]], h, (10**12, 10**12))
        assert valid[0] == (finite and w > 0)  # a negative w puts y = 3 / w above the image

    @pytest.mark.parametrize("h", [
        np.array([[1.01, 0.02, 1.5], [-0.03, 0.98, -2.0], [1e-4, -2e-4, 1.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -5.0]]),  # w = 0 at x = 5
    ])
    def test_equals_the_masked_divide_without_warnings(self, h):
        rows, cols = np.mgrid[0:64, 0:64]
        pts = np.stack([cols.ravel(), rows.ravel()], axis=1).astype(float)
        mapped = np.hstack([pts, np.ones((pts.shape[0], 1))]) @ h.T
        safe = np.abs(mapped[:, 2]) >= simulate._W_COORD_EPS
        expected = np.full_like(pts, np.nan)
        expected[safe] = mapped[safe, :2] / mapped[safe, 2, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = simulate.project_points(pts, h)
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.isnan(out).any() == (not safe.all())

    def test_empty_input(self):
        out = simulate.project_points(np.zeros((0, 2)), np.eye(3))
        assert out.shape == (0, 2) and out.dtype == float
        mapped, valid = simulate.map_points(np.zeros((0, 2)), np.eye(3), (8, 8))
        assert mapped.shape == (0, 2) and valid.shape == (0,) and valid.dtype == bool


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
        img = simulate.gaussian_blur(checker((40, 40), 10), 1.5)
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
