import sys
import threading
import tracemalloc

import numpy as np
import pytest

import naive_net
from conftest import ReadRecorder, mutate_bytes
from pointprops import image_io, model


def random_params(seed=7, d=8):
    params = model.init_params(seed, d)
    # shift biases off zero so every layer participates in gradient checks
    rng = np.random.default_rng(seed + 1)
    for k in params.weights:
        if k.endswith("_b"):
            params.weights[k] = rng.normal(0.0, 0.05, size=params.weights[k].shape)
    return params


def pixels(shape):
    """(rows, cols) of every pixel of an (H, W) image, in raster order."""
    return np.indices(shape).reshape(2, -1)


def dense_field(out):
    """``out.describe`` at every pixel, as an (H, W, d) field."""
    shape = out.prob_map.shape
    return out.describe(*pixels(shape)).reshape(*shape, -1)


def at_pixels(grad_field):
    """An (H, W, d) descriptor gradient as ``backward``'s (rows, cols,
    grads) at every pixel."""
    rows, cols = pixels(grad_field.shape[:2])
    return rows, cols, grad_field.reshape(rows.size, -1)


def dense_rowcol(mat_h, x, mat_w):
    """sum_h sum_w mat_h[i, h] * x[h, w, c] * mat_w[j, w] by two whole-matrix
    GEMMs, rows then columns, through a transposed copy between them."""
    h, w, c = x.shape
    tall = mat_h @ x.reshape(h, w * c)
    rows = tall.shape[0]
    turned = np.ascontiguousarray(tall.reshape(rows, w, c).transpose(1, 0, 2))
    wide = mat_w @ turned.reshape(w, rows * c)
    return wide.reshape(-1, rows, c).transpose(1, 0, 2)


def upsample_matrices(h, w):
    """The bilinear x4 ``resample_matrix`` of each axis of an (h, w) input."""
    return image_io.resample_matrix(h, 4 * h), image_io.resample_matrix(w, 4 * w)


def upsample_rowcol(x):
    """Bilinear x4 of (h, w, C) x by dense ``resample_matrix`` GEMMs: the
    reference for the detection upsample and for the full-resolution
    descriptor field."""
    mat_h, mat_w = upsample_matrices(*x.shape[:2])
    return dense_rowcol(mat_h, x, mat_w)


def unit_rows(x):
    """x over sqrt(|x|^2 + NORM_EPS) along its last axis, and that norm."""
    norm = np.sqrt((x * x).sum(axis=-1) + model.NORM_EPS)
    return x / norm[..., None], norm


def reference_field(desc_map):
    """The full-resolution descriptor field: the dense upsample of the
    quarter-resolution unit map, renormalised at every pixel."""
    return unit_rows(upsample_rowcol(desc_map))[0]


def scalar_objective(params, image, grad_prob, grad_desc):
    out = model.forward(params, image)
    return float((grad_prob * out.prob_map).sum() + (grad_desc * dense_field(out)).sum())


def finite_difference(params, image, grad_prob, grad_desc, key, flat_index, step=1e-4):
    plus = params.copy()
    plus.weights[key].ravel()[flat_index] += step
    minus = params.copy()
    minus.weights[key].ravel()[flat_index] -= step
    f_plus = scalar_objective(plus, image, grad_prob, grad_desc)
    f_minus = scalar_objective(minus, image, grad_prob, grad_desc)
    return (f_plus - f_minus) / (2 * step)


class TestInit:
    def test_deterministic(self):
        a = model.init_params(7, 16)
        b = model.init_params(7, 16)
        assert set(a.weights) == set(b.weights)
        for k in a.weights:
            np.testing.assert_array_equal(a.weights[k], b.weights[k])

    def test_seed_sensitivity(self):
        a = model.init_params(7, 16)
        b = model.init_params(8, 16)
        assert any(not np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)

    def test_weight_std_matches_uniform_target(self):
        # target std of U[-a, a] is a / sqrt(3) with a = sqrt(6 / (fan_in + fan_out))
        params = model.init_params(7, 16)
        for name, kind, cin, cout in params.layer_topology:
            if not kind.startswith("conv3x3"):
                continue
            target = np.sqrt(6.0 / (cin * 9 + cout * 9)) / np.sqrt(3.0)
            empirical = params.weights[name + "_w"].std()
            assert abs(empirical - target) <= 0.2 * target, name

    def test_biases_zero(self):
        params = model.init_params(7, 16)
        for k, v in params.weights.items():
            if k.endswith("_b"):
                assert np.all(v == 0.0)

    def test_rejects_small_descriptor(self):
        with pytest.raises(ValueError):
            model.init_params(7, 1)


class TestForward:
    def test_zero_network_gives_half_probability(self):
        params = model.init_params(0, 4)
        for k in params.weights:
            params.weights[k] = np.zeros_like(params.weights[k])
        out = model.forward(params, np.zeros((8, 8)))
        np.testing.assert_allclose(out.prob_map, 0.5, atol=1e-12)

    def test_descriptor_unit_norm(self):
        params = random_params(3, d=8)
        rng = np.random.default_rng(5)
        img = rng.random((12, 16))
        out = model.forward(params, img)
        assert out.desc_map.shape == (3, 4, 8)
        for field in (out.desc_map, dense_field(out)):
            np.testing.assert_allclose(np.linalg.norm(field, axis=-1), 1.0, atol=1e-6)

    def test_prob_map_strictly_inside_unit_interval(self):
        params = random_params(3, d=8)
        out = model.forward(params, np.random.default_rng(0).random((8, 8)))
        assert np.all(out.prob_map > 0.0)
        assert np.all(out.prob_map < 1.0)

    def test_matches_naive_reference(self):
        params = random_params(11, d=6)
        img = np.random.default_rng(12).random((8, 8))
        out = model.forward(params, img)
        prob_ref, desc_ref = naive_net.forward(params, img)
        np.testing.assert_allclose(out.prob_map, prob_ref, atol=1e-10)
        np.testing.assert_allclose(dense_field(out), desc_ref, atol=1e-10)

    def test_pure_function(self):
        params = random_params(2, d=4)
        before = {k: v.copy() for k, v in params.weights.items()}
        img = np.random.default_rng(1).random((8, 8))
        a = model.forward(params, img)
        b = model.forward(params, img)
        np.testing.assert_array_equal(a.prob_map, b.prob_map)
        np.testing.assert_array_equal(a.desc_map, b.desc_map)
        for k in before:
            np.testing.assert_array_equal(params.weights[k], before[k])

    def test_tape_free_matches_taped(self):
        # 64x64 at d = 16 walks two bands in enc2 and det1
        for shape, d in [((12, 16), 6), ((64, 64), 16)]:
            params = random_params(13, d=d)
            img = np.random.default_rng(14).random(shape)
            taped = model.forward(params, img)
            free = model.forward(params, img, keep_cache=False)
            np.testing.assert_array_equal(free.prob_map, taped.prob_map)
            np.testing.assert_array_equal(free.desc_map, taped.desc_map)
            assert taped.cache and free.cache == {}
        with pytest.raises(ValueError, match="no cache"):
            model.backward(params, free, np.ones_like(free.prob_map),
                           at_pixels(np.zeros((64, 64, 16))))

    def test_sigmoid_equals_the_masked_form(self):
        rng = np.random.default_rng(15)
        z = np.concatenate([[-800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0, 800.0],
                            10.0 * rng.normal(size=200)]).reshape(13, 16)
        pos = z >= 0
        expected = np.empty_like(z)
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ex = np.exp(z[~pos])
        expected[~pos] = ex / (1.0 + ex)
        expected = np.clip(expected, model.PROB_CLIP, 1.0 - model.PROB_CLIP)
        assert np.array_equal(model._sigmoid(z), expected)

    def test_rejects_bad_dimensions(self):
        params = model.init_params(0, 4)
        with pytest.raises(ValueError):
            model.forward(params, np.zeros((7, 8)))
        with pytest.raises(ValueError):
            model.forward(params, np.zeros((8, 10)))
        with pytest.raises(ValueError, match="expected 1 .* channel, got 3"):
            model.forward(params, np.zeros((8, 8, 3)))


def full_patch_matrix(x):
    """The whole (H*W, C*9) reflect-pad patch matrix, copied in one go."""
    h, w, c = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(0, 1))
    return windows.reshape(h * w, c * 9)


def reference_conv3_backward(x, wts, grad_out):
    """(dw, db, dx) of ``full_patch_matrix(x) @ w + b``, derived by hand: each
    patch entry (i, j, c, ki, kj) is x at the reflected pixel i + ki - 1,
    j + kj - 1, so dx gathers the patch gradients by that index."""
    h, w, c = x.shape
    cout = wts.shape[0]
    g = grad_out.reshape(h * w, cout)
    patches = full_patch_matrix(x)
    dpatches = (g @ wts.reshape(cout, -1)).reshape(h, w, c, 3, 3)
    source = np.pad(np.arange(h * w).reshape(h, w), 1, mode="reflect")
    dx = np.zeros((h * w, c))
    for ki in range(3):
        for kj in range(3):
            np.add.at(dx, source[ki : ki + h, kj : kj + w].ravel(),
                      dpatches[:, :, :, ki, kj].reshape(-1, c))
    return (g.T @ patches).reshape(wts.shape), g.sum(axis=0), dx.reshape(h, w, c)


def assert_close(actual, expected, rel=1e-12):
    """Within ``rel`` of the largest magnitude of ``expected``."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def padded(x):
    """The reflect-padded (H+2, W+2, C) input of a conv on x, filled in place."""
    xp = np.empty((x.shape[0] + 2, x.shape[1] + 2, x.shape[2]))
    xp[1:-1, 1:-1] = x
    model._reflect_border(xp)
    return xp


def conv3(xp, wts, bias, out=None, relu=False):
    """``model._conv3`` into ``out`` or a fresh array, through band buffers
    of the size ``model._conv3_bands`` asks for."""
    (hp, wp, cin), cout = xp.shape, wts.shape[0]
    _, scratch, acc = model._conv3_bands(hp - 2, wp, cin, cout)
    if out is None:
        out = np.empty((hp - 2, wp - 2, cout))
    model._conv3(xp, wts, bias, out, relu, np.empty(scratch), np.empty(acc))
    return out


def random_conv(h, w, cin, cout):
    rng = np.random.default_rng(h * w + cin * 31 + cout)
    return (rng.random((h, w, cin)), rng.normal(size=(cout, cin, 3, 3)),
            rng.normal(size=cout), rng.normal(size=(h, w, cout)))


class TestBandedConv:
    # (H, W, Cin, Cout): Cin above, equal to and below Cout; Cin = 1, Cout = 1
    # and 1-pixel axes; the last three give the per-tap and the stacked
    # layout several uneven bands (test_shapes_cover_...)
    SHAPES = [(37, 64, 24, 8), (6, 640, 24, 8), (4, 4, 24, 8), (48, 64, 16, 1),
              (40, 80, 16, 3), (38, 160, 24, 8), (3, 1822, 8, 8), (37, 160, 8, 16),
              (2, 1824, 8, 16), (5, 6, 3, 7), (1, 1, 16, 16), (1, 4, 1, 8),
              (37, 1000, 8, 8), (21, 1000, 2, 8), (21, 1000, 8, 2)]

    @pytest.mark.parametrize("h, w, cin, cout", SHAPES)
    def test_equals_one_full_matrix_gemm(self, h, w, cin, cout):
        x, wts, bias, _ = random_conv(h, w, cin, cout)
        expected = (full_patch_matrix(x) @ wts.reshape(cout, -1).T + bias).reshape(h, w, cout)
        assert_close(conv3(padded(x), wts, bias), expected)
        # through the ReLU into the interior of a wider padded array, as the
        # forward writes each layer into its consumer's input
        dest = np.full((h + 2, w + 2, cout + 3), np.nan)
        conv3(padded(x), wts, bias, dest[1:-1, 1:-1, 3:], relu=True)
        assert_close(dest[1:-1, 1:-1, 3:], np.maximum(expected, 0.0))
        dest[1:-1, 1:-1, 3:] = np.nan
        assert np.isnan(dest).all()

    @pytest.mark.parametrize("h, w, cin, cout", SHAPES)
    def test_backward_equals_hand_derived_gradients(self, h, w, cin, cout):
        x, wts, _, grad_out = random_conv(h, w, cin, cout)
        got = model._conv3_backward(padded(x), wts, grad_out)
        for actual, expected in zip(got, reference_conv3_backward(x, wts, grad_out)):
            assert_close(actual, expected)

    @pytest.mark.parametrize("h, w, cin, cout", [(4, 4, 24, 8), (5, 6, 3, 7), (3, 5, 8, 1)])
    def test_small_shapes_match_naive_net(self, h, w, cin, cout):
        x, wts, bias, _ = random_conv(h, w, cin, cout)
        expected = naive_net.conv3(x, wts, bias)
        assert_close(conv3(padded(x), wts, bias), expected)

    def test_shapes_cover_each_layout_with_one_and_several_bands(self, monkeypatch):
        # per conv call: (stacked layout?, more than one band?) of its
        # forward and of its input gradient, one _shifted_gemm call per band
        calls, seen = [], set()
        shifted_gemm = model._shifted_gemm

        def record(src, offsets, taps, out, scratch):
            calls.append(model._stacks_taps(*taps.shape[1:]))
            shifted_gemm(src, offsets, taps, out, scratch)

        monkeypatch.setattr(model, "_shifted_gemm", record)
        for shape in self.SHAPES:
            x, wts, bias, grad_out = random_conv(*shape)
            xp = padded(x)
            for run in (lambda: conv3(xp, wts, bias),
                        lambda: model._conv3_backward(xp, wts, grad_out)):
                calls.clear()
                run()
                assert len(set(calls)) == 1
                seen.add((calls[0], len(calls) > 1))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_taped_forward_keeps_only_padded_inputs(self):
        params = model.init_params(0, 16)
        out = model.forward(params, np.random.default_rng(0).random((64, 64)))
        # each ReLU's mask is read back from its consumer's input
        assert not [key for key in out.cache if key.endswith("_pre")]
        arrays = [v for v in out.cache.values() if isinstance(v, np.ndarray)]
        patch_widths = {9 * cin for _, kind, cin, _ in params.layer_topology
                        if kind.startswith("conv3x3")}
        assert not any(a.ndim == 2 and a.shape[1] in patch_widths for a in arrays)
        # a cached view keeps its whole base buffer alive: count each once
        bases = {}
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a.nbytes
        # descriptors are taken at points: no (H, W, d) descriptor array
        assert not any(a.shape[:2] == (64, 64) and a.shape[-1:] == (16,) for a in arrays)
        # measured 1.812 MiB, of which the padded inputs take 1.7 MiB;
        # (H*W, 9*C) patch matrices would take 15.6 MiB
        assert sum(bases.values()) < 1.85 * 2**20

    def test_inference_forward_never_holds_a_whole_patch_matrix(self):
        params = model.init_params(0, 16)
        img = np.random.default_rng(0).random((240, 320))
        tracemalloc.start()
        try:
            model.forward(params, img, keep_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 27.1 MiB with this thread's 23.2 MiB workspace built in
        # the call, 3.6 MiB with it built before; a whole-image (rows, W+2,
        # 9, Cout) tap-product buffer of det1 would add 42 MiB, its patch
        # matrix 126.6 MiB
        assert peak < 48 * 2**20


class TestDescribe:
    """Descriptors at points equal the dense full-resolution field there, and
    ``backward`` takes their gradient as the dense field's adjoint would."""

    @pytest.mark.parametrize("shape", [(8, 8), (24, 24), (64, 64), (240, 320), (4, 4),
                                       (4, 8)])
    def test_every_pixel_equals_the_dense_upsample(self, shape):
        # on 4-pixel sides the quarter-resolution map has a 1-pixel axis
        params = random_params(17, d=16)
        out = model.forward(params, np.random.default_rng(18).random(shape),
                            keep_cache=False)
        assert out.desc_map.shape == (shape[0] // 4, shape[1] // 4, 16)
        np.testing.assert_allclose(dense_field(out), reference_field(out.desc_map),
                                   rtol=0, atol=1e-15)

    def test_points_in_any_order_and_repeated(self):
        params = random_params(19, d=6)
        out = model.forward(params, np.random.default_rng(20).random((16, 12)))
        field = dense_field(out)
        rows, cols = np.array([15, 0, 7, 7, 3]), np.array([11, 0, 4, 4, 9])
        np.testing.assert_array_equal(out.describe(rows, cols), field[rows, cols])
        assert out.describe(rows[:0], cols[:0]).shape == (0, 6)

    def test_backward_at_points_equals_the_dense_adjoint(self):
        rng = np.random.default_rng(21)
        desc_map, _ = unit_rows(rng.normal(size=(6, 5, 3)))
        shape = (24, 20)
        rows, cols = rng.integers(0, 24, 40), rng.integers(0, 20, 40)
        rows[1], cols[1] = rows[0], cols[0]  # two points on one pixel
        grads = rng.normal(size=(40, 3))
        got = model._describe_backward(desc_map, rows, cols, grads)
        # the field holding those point gradients, through the adjoint of the
        # dense path: the full-resolution renormalization, then the upsample
        field = np.zeros((*shape, 3))
        np.add.at(field, (rows, cols), grads)
        unit, norm = unit_rows(upsample_rowcol(desc_map))
        g = (field - unit * (field * unit).sum(axis=-1, keepdims=True)) / norm[..., None]
        mat_h, mat_w = upsample_matrices(*desc_map.shape[:2])
        expected = np.einsum("ih,ijc,jw->hwc", mat_h, g, mat_w)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_two_points_on_one_pixel_get_the_summed_gradient(self):
        params = random_params(22, d=4)
        rng = np.random.default_rng(23)
        out = model.forward(params, rng.random((16, 16)))
        gp = rng.normal(size=(16, 16))
        g = rng.normal(size=(3, 4))
        twice = model.backward(params, out, gp, ([5, 5, 9], [2, 2, 14], g))
        summed = model.backward(params, out, gp, ([5, 9], [2, 14], [g[0] + g[1], g[2]]))
        for key in twice:
            assert_close(twice[key], summed[key])

    def test_backward_rejects_bad_points(self):
        params = random_params(24, d=4)
        out = model.forward(params, np.zeros((8, 8)))
        gp = np.zeros((8, 8))
        for rows, cols, grads in [([0, 8], [0, 0], np.zeros((2, 4))),
                                  ([0, -1], [0, 0], np.zeros((2, 4))),
                                  ([0, 1], [0, 8], np.zeros((2, 4))),
                                  ([0, 1], [0, 1], np.zeros((2, 3))),
                                  ([0, 1], [0], np.zeros((2, 4)))]:
            with pytest.raises(ValueError, match="grad_desc"):
                model.backward(params, out, gp, (rows, cols, grads))


class TestMaxPool:
    """``_maxpool2`` (row pairs, then column pairs) equals the max of the 4
    strided views of the cells, bit for bit, read from and written into
    strided views as in the forward."""

    @staticmethod
    def four_views(x):
        out = np.maximum(x[0::2, 0::2], x[0::2, 1::2])
        np.maximum(out, x[1::2, 0::2], out=out)
        return np.maximum(out, x[1::2, 1::2], out=out)

    @pytest.mark.parametrize("h, w, c", [(2, 2, 1), (4, 6, 3), (8, 8, 8), (30, 22, 16)])
    def test_equals_the_four_view_max(self, h, w, c):
        rng = np.random.default_rng(h * 100 + w)
        # ties (few distinct values), infinities and nan; no -0.0, whose ties
        # with 0.0 could pick either sign: the forward pools ReLU outputs,
        # and its ReLU, np.maximum(x, 0.0), maps -0.0 to 0.0
        values = np.array([0.0, 1.0, 1.0 + 2.0 ** -52, -3.5, np.inf, -np.inf, np.nan])
        big = rng.choice(values, size=(h + 2, w + 2, c + 8))
        x = big[1:-1, 1:-1, 8:]
        dest = np.full((h // 2 + 2, w // 2 + 2, c), 7.0)
        model._maxpool2(x, dest[1:-1, 1:-1])
        expected = self.four_views(x)
        assert np.array_equal(dest[1:-1, 1:-1], expected, equal_nan=True)
        dest[1:-1, 1:-1] = 7.0
        assert (dest == 7.0).all()


class TestUpsample:
    """The detection upsample and its adjoint equal the dense GEMMs bit for
    bit; the forward writes into a strided view, as into det1's input."""

    # quarter-resolution (h, w): 1-pixel axes, odd and uneven sides, and the
    # quarter shapes of 64x64 and 240x320 images
    SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (6, 6), (7, 9), (16, 16), (30, 5), (60, 80)]

    @pytest.mark.parametrize("h, w", SHAPES)
    def test_forward_writes_the_dense_upsample_into_a_strided_view(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        x = rng.random((h + 2, w + 2, 16))[1:-1, 1:-1]  # as desc1's input interior
        dest = np.full((4 * h + 2, 4 * w + 2, 24), np.nan)
        model._upsample4(x, np.empty((4 * h, w * 16)), dest[1:-1, 1:-1, :16])
        assert np.array_equal(dest[1:-1, 1:-1, :16], upsample_rowcol(x))
        dest[1:-1, 1:-1, :16] = np.nan
        assert np.isnan(dest).all()

    @pytest.mark.parametrize("h, w", SHAPES)
    def test_adjoint_equals_the_transposed_dense_gemms(self, h, w):
        rng = np.random.default_rng(h * 100 + w + 1)
        g = rng.normal(size=(4 * h + 2, 4 * w + 2, 24))[1:-1, 1:-1, :16]
        mat_h, mat_w = upsample_matrices(h, w)
        got = model._upsample4_backward(g, (h, w, 16))
        assert np.array_equal(got, dense_rowcol(mat_h.T, g, mat_w.T))


def workspace_bytes(h, w, d):
    """Bytes of the tape-free forward's workspace: the end of each
    ``_layout`` arena's furthest array, summed over the arenas."""
    ends = {}
    for arena, offset, shape in model._layout(h, w, d).values():
        ends[arena] = max(ends.get(arena, 0), offset + int(np.prod(shape)))
    return 8 * sum(ends.values())


class TestWorkspace:
    """The tape-free forward reuses one workspace per thread."""

    def test_output_is_not_changed_by_a_later_forward_of_the_same_shape(self):
        params = random_params(5, d=8)
        rng = np.random.default_rng(6)
        first, second = rng.random((2, 48, 64))
        out = model.forward(params, first, keep_cache=False)
        prob, desc = out.prob_map.copy(), out.desc_map.copy()
        model.forward(params, second, keep_cache=False)
        np.testing.assert_array_equal(out.prob_map, prob)
        np.testing.assert_array_equal(out.desc_map, desc)
        again = model.forward(params, first, keep_cache=False)
        np.testing.assert_array_equal(again.prob_map, prob)
        np.testing.assert_array_equal(again.desc_map, desc)

    def test_interleaved_threads_get_the_serial_bits(self):
        params = random_params(7, d=8)
        rng = np.random.default_rng(8)
        # more threads than cores; two share a shape, so one workspace shared
        # across threads would mix their images
        images = [rng.random(shape) for shape in [(64, 64), (48, 80), (64, 64), (16, 32)]]
        serial = [model.forward(params, img, keep_cache=False) for img in images]
        rounds = 4
        barrier = threading.Barrier(len(images), timeout=60)
        results = [[] for _ in images]

        def worker(i):
            for _ in range(rounds):
                barrier.wait()
                results[i].append(model.forward(params, images[i], keep_cache=False))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(images))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for expected, got in zip(serial, results):
            assert len(got) == rounds
            for out in got:
                np.testing.assert_array_equal(out.prob_map, expected.prob_map)
                np.testing.assert_array_equal(out.desc_map, expected.desc_map)

    def test_second_forward_of_a_shape_allocates_little(self):
        params = model.init_params(0, 16)
        img = np.random.default_rng(0).random((240, 320))
        peaks = []

        def twice():
            for _ in range(2):
                tracemalloc.start()
                try:
                    model.forward(params, img, keep_cache=False)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

        # in a new thread, whose workspace starts empty
        thread = threading.Thread(target=twice)
        thread.start()
        thread.join(120)
        assert not thread.is_alive()
        # measured 27.1 MiB, then 3.6 MiB: the second call reuses the
        # thread's workspace and allocates little beside the 1.2 MiB of maps
        # it returns
        first, second = peaks
        workspace = workspace_bytes(240, 320, 16)
        assert second < 6 * 2**20
        assert first - second > 0.95 * workspace
        # measured 23.23 MiB
        assert workspace < 23.3 * 2**20


class TestOnePixelAxes:
    """4-pixel image sides leave the descriptor head a 1-pixel axis, where
    reflection repeats the pixel (``np.pad(mode="reflect")``)."""

    SIZES = [(4, 4), (4, 8), (8, 4)]

    @pytest.mark.parametrize("shape", [(1, 1, 2), (1, 5, 3), (5, 1, 3), (2, 2, 1), (5, 7, 2)])
    def test_pad_matches_np_pad_and_fold_is_its_adjoint(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.random(shape)
        xp = np.full((shape[0] + 2, shape[1] + 2, shape[2]), np.nan)
        xp[1:-1, 1:-1] = x
        model._reflect_border(xp)
        np.testing.assert_array_equal(xp, np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="reflect"))
        dxp = rng.normal(size=(shape[0] + 2, shape[1] + 2, shape[2]))
        source = np.pad(np.arange(shape[0] * shape[1]).reshape(shape[:2]), 1, mode="reflect")
        expected = np.zeros((shape[0] * shape[1], shape[2]))
        np.add.at(expected, source.ravel(), dxp.reshape(-1, shape[2]))
        assert_close(model._reflect_fold(dxp.copy()), expected.reshape(shape))

    @pytest.mark.parametrize("size", SIZES)
    def test_forward_matches_naive_reference(self, size):
        params = random_params(23, d=4)
        img = np.random.default_rng(24).random(size)
        out = model.forward(params, img)
        prob_ref, desc_ref = naive_net.forward(params, img)
        np.testing.assert_allclose(out.prob_map, prob_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dense_field(out), desc_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", SIZES)
    def test_gradients_match_finite_difference(self, size):
        params = random_params(25, d=4)
        rng = np.random.default_rng(26)
        img = rng.random(size)
        out = model.forward(params, img)
        gp = rng.normal(size=out.prob_map.shape)
        gd = rng.normal(size=(*size, 4))
        grads = model.backward(params, out, gp, at_pixels(gd))
        for key in sorted(params.weights):
            size = params.weights[key].size
            for flat in rng.choice(size, size=min(3, size), replace=False):
                fd = finite_difference(params, img, gp, gd, key, flat)
                an = grads[key].ravel()[flat]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                assert rel <= 1e-4, f"{size} {key}[{flat}]: analytic {an} vs fd {fd}"


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = random_params(4, d=4)
        img = np.random.default_rng(2).random((8, 8))
        out = model.forward(params, img)
        grads = model.backward(
            params, out, np.zeros_like(out.prob_map), at_pixels(np.zeros((8, 8, 4)))
        )
        for v in grads.values():
            assert np.all(v == 0.0)

    def test_image_gradient_is_not_computed(self, monkeypatch):
        skipped = []
        conv3_backward = model._conv3_backward

        def record(xp, w, grad_out, input_grad=True):
            if not input_grad:
                skipped.append(xp.shape[2])
            return conv3_backward(xp, w, grad_out, input_grad)

        monkeypatch.setattr(model, "_conv3_backward", record)
        params = random_params(4, d=4)
        out = model.forward(params, np.random.default_rng(2).random((8, 8)))
        model.backward(params, out, np.ones_like(out.prob_map), at_pixels(np.ones((8, 8, 4))))
        assert skipped == [1]  # enc1 alone, whose input is the 1-channel image

    def test_reads_every_tape_entry_and_no_copy_of_an_output_map(self):
        params = random_params(25, d=4)
        rng = np.random.default_rng(26)
        out = model.forward(params, rng.random((16, 16)))
        out.cache = ReadRecorder(out.cache)
        model.backward(params, out, rng.normal(size=(16, 16)),
                       ([3, 12], [5, 9], rng.normal(size=(2, 4))))
        assert out.cache.read == set(out.cache)
        # backward reads the maps from the output and each pool's argmax
        # from the pool's input
        assert not any(np.shares_memory(v, m) for v in out.cache.values()
                       if isinstance(v, np.ndarray) for m in (out.prob_map, out.desc_map))
        assert not [key for key in out.cache if key.startswith("pool")]

    def test_linearity(self):
        params = random_params(4, d=4)
        rng = np.random.default_rng(3)
        img = rng.random((8, 8))
        out = model.forward(params, img)
        gp = rng.normal(size=out.prob_map.shape)
        gd = rng.normal(size=(8, 8, 4))
        g1 = model.backward(params, out, gp, at_pixels(gd))
        g2 = model.backward(params, out, 2 * gp, at_pixels(2 * gd))
        for k in g1:
            np.testing.assert_allclose(g2[k], 2 * g1[k], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = random_params(4, d=4)
        out = model.forward(params, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            model.backward(params, out, np.zeros((4, 4)), at_pixels(np.zeros((8, 8, 4))))

    def test_single_hot_prob_grad_matches_finite_difference(self):
        params = random_params(9, d=4)
        rng = np.random.default_rng(10)
        img = rng.random((8, 8))
        out = model.forward(params, img)
        gp = np.zeros_like(out.prob_map)
        gp[rng.integers(8), rng.integers(8)] = 1.0
        gd = np.zeros((8, 8, 4))
        grads = model.backward(params, out, gp, at_pixels(gd))
        for key in ["enc1_w", "enc3_w", "det1_w", "det2_w", "det2_b"]:
            size = grads[key].size
            for flat in rng.choice(size, size=min(4, size), replace=False):
                fd = finite_difference(params, img, gp, gd, key, flat)
                an = grads[key].ravel()[flat]
                assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd), 1e-6), key

    def test_full_gradient_matches_finite_difference_all_layers(self):
        """Analytic gradients vs central differences on >= 100 sampled parameters."""
        params = random_params(13, d=4)
        rng = np.random.default_rng(14)
        img = rng.random((8, 8))
        out = model.forward(params, img)
        gp = rng.normal(size=out.prob_map.shape)
        gd = rng.normal(size=(8, 8, 4))
        grads = model.backward(params, out, gp, at_pixels(gd))
        checked = 0
        for key in sorted(params.weights):
            size = params.weights[key].size
            picks = rng.choice(size, size=min(8, size), replace=False)
            for flat in picks:
                fd = finite_difference(params, img, gp, gd, key, flat)
                an = grads[key].ravel()[flat]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                assert rel <= 1e-4, f"{key}[{flat}]: analytic {an} vs fd {fd}"
                checked += 1
        assert checked >= 100


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        params = random_params(1, d=4)
        new, state = model.apply_update(params, model.zero_grads(params))
        assert state.step == 1
        for k in params.weights:
            np.testing.assert_array_equal(new.weights[k], params.weights[k])

    def test_first_step_is_signed_learning_rate(self):
        # fresh state, constant grad g: step = -lr * g / (|g| + eps)
        params = model.init_params(0, 4)
        g = 0.37
        grads = model.zero_grads(params)
        grads["enc1_b"][:] = g
        new, _ = model.apply_update(params, grads, lr=0.001)
        expected = -0.001 * g / (abs(g) + 1e-8)
        step = new.weights["enc1_b"][0] - params.weights["enc1_b"][0]
        np.testing.assert_allclose(step, expected, rtol=1e-12)
        assert abs(step + 0.001 * np.sign(g)) < 1e-6

    def test_repeated_steps_approach_learning_rate(self):
        # closed-form recurrence oracle: for constant grad both moment estimates
        # stay bias-corrected to g and g^2, so each step has size lr*|g|/(|g|+eps)
        params = model.init_params(0, 4)
        grads = model.zero_grads(params)
        grads["enc1_b"][:] = 2.0
        state = None
        prev = params
        magnitudes = []
        for _ in range(5):
            new, state = model.apply_update(prev, grads, state, lr=0.001)
            magnitudes.append(abs(new.weights["enc1_b"][0] - prev.weights["enc1_b"][0]))
            prev = new
        for a, b in zip(magnitudes, magnitudes[1:]):
            assert b >= a - 1e-12
        assert magnitudes[-1] <= 0.001 + 1e-12
        np.testing.assert_allclose(magnitudes[-1], 0.001 * 2.0 / (2.0 + 1e-8), rtol=1e-9)

    def test_rejects_shape_mismatch(self):
        params = model.init_params(0, 4)
        grads = model.zero_grads(params)
        grads["enc1_w"] = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError):
            model.apply_update(params, grads)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = random_params(21, d=6)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, params)
        loaded = model.load_checkpoint(path)
        assert loaded.descriptor_dim == 6
        assert set(loaded.weights) == set(params.weights)
        for k in params.weights:
            np.testing.assert_array_equal(loaded.weights[k], params.weights[k])

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        for content in (b"something else\n", b"\x89PNG\r\n\x1a\n\xff\xfe"):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=r"bogus\.ckpt: not a"):
                model.load_checkpoint(path)

    def test_header_line(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, model.init_params(0, 4))
        assert path.read_text().splitlines()[0] == "pointprops-ckpt v1"

    def _damaged(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, model.init_params(0, 4))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    def test_truncated_param_block_names_file_and_line(self, tmp_path):
        # desc1_w starts at line 7; keeping 40 lines leaves 33 of its value lines
        path = self._damaged(tmp_path, lambda lines: lines[:40])
        with pytest.raises(ValueError,
                           match=r"model\.ckpt: line 7: param desc1_w has 264 of 2304 values"):
            model.load_checkpoint(path)

    def test_short_block_before_next_param(self, tmp_path):
        # drop a value line of the first block: the next header arrives early
        path = self._damaged(tmp_path, lambda lines: lines[:5] + lines[6:])
        with pytest.raises(ValueError, match=r"model\.ckpt: line 4: param desc1_b has 8 of 16"):
            model.load_checkpoint(path)

    def test_non_numeric_value_names_file_and_line(self, tmp_path):
        def corrupt(lines):
            lines[7] = lines[7].replace(lines[7].split()[0], "0.1x", 1)
            return lines
        path = self._damaged(tmp_path, corrupt)
        with pytest.raises(ValueError, match=r"model\.ckpt: line 8: non-numeric value"):
            model.load_checkpoint(path)

    def test_non_finite_value_names_file_and_line(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            def corrupt(lines, bad=bad):
                lines[7] = lines[7].replace(lines[7].split()[0], bad, 1)
                return lines
            path = self._damaged(tmp_path, corrupt)
            with pytest.raises(ValueError,
                               match=r"model\.ckpt: line 8: non-finite value in param desc1_w"):
                model.load_checkpoint(path)

    def test_malformed_meta_line_names_file_and_line(self, tmp_path):
        for bad in ("descriptor_dim four", "descriptor_dim", "in_channels 1 2"):
            def corrupt(lines, bad=bad):
                lines[1 if bad.startswith("descriptor") else 2] = bad
                return lines
            path = self._damaged(tmp_path, corrupt)
            line = 2 if bad.startswith("descriptor") else 3
            with pytest.raises(ValueError, match=rf"model\.ckpt: line {line}: malformed meta"):
                model.load_checkpoint(path)

    def test_in_channels_line_is_optional_and_must_be_one(self, tmp_path):
        path = self._damaged(tmp_path, lambda lines: lines[:2] + lines[3:])
        assert model.load_checkpoint(path).descriptor_dim == 4
        path = self._damaged(tmp_path, lambda lines: lines[:2] + ["in_channels 3"] + lines[3:])
        with pytest.raises(ValueError, match=r"model\.ckpt: line 3: in_channels 3"):
            model.load_checkpoint(path)

    def test_repeated_unknown_and_negative_records_name_file_and_line(self, tmp_path):
        # lines: 1 header, 2 descriptor_dim, 3 in_channels, 4 "param desc1_b 16",
        # 5-6 its values, 7 "param desc1_w 16 16 3 3"
        cases = [
            (lambda lines: lines[:2] + lines[1:], r"line 3: meta key 'descriptor_dim' appears twice"),
            (lambda lines: lines[:2] + ["size 4"] + lines[2:], r"line 3: unknown meta key 'size'"),
            (lambda lines: lines[:3] + ["param desc1_b -1 -16"] + lines[4:],
             r"line 4: param desc1_b has a negative shape"),
            (lambda lines: lines[:6] + lines[3:], r"line 7: param desc1_b appears twice"),
        ]
        for edit, message in cases:
            path = self._damaged(tmp_path, edit)
            with pytest.raises(ValueError, match=r"model\.ckpt: " + message):
                model.load_checkpoint(path)

    def test_wrong_shape_names_parameter(self, tmp_path):
        params = model.init_params(0, 4)
        params.weights["det2_b"] = np.zeros(2)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, params)
        with pytest.raises(ValueError, match=r"model\.ckpt: param det2_b has shape"):
            model.load_checkpoint(path)


class TestCheckpointMutations:
    def test_each_mutant_loads_whole_or_names_the_file(self, tmp_path):
        source = tmp_path / "model.ckpt"
        model.save_checkpoint(source, random_params(31, d=2))
        data = source.read_bytes()
        rng = np.random.default_rng(20191004)
        path = tmp_path / "mutant.ckpt"
        loaded = rejected = 0
        for _ in range(200):
            path.write_bytes(mutate_bytes(data, rng))
            try:
                params = model.load_checkpoint(path)
            except ValueError as err:
                assert str(path) in str(err)
                rejected += 1
                continue
            shapes = model.param_shapes(params.descriptor_dim)
            assert {k: v.shape for k, v in params.weights.items()} == shapes
            assert all(np.isfinite(v).all() for v in params.weights.values())
            loaded += 1
        assert rejected > 0 and loaded > 0
