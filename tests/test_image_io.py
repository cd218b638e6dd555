import numpy as np
import pytest

from conftest import PNG_CHANNELS, mutate_bytes, write_filtered_png, write_pnm
from pointprops import image_io


def quantized(rng, shape):
    return np.rint(rng.random(shape) * 255) / 255.0


class TestPNM:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = quantized(rng, (12, 17))
        path = tmp_path / "img.pgm"
        write_pnm(path, img)
        np.testing.assert_allclose(image_io.read_pnm(path), img, atol=1e-9)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = quantized(rng, (9, 7, 3))
        path = tmp_path / "img.ppm"
        write_pnm(path, img)
        np.testing.assert_allclose(image_io.read_pnm(path), img, atol=1e-9)

    def test_ascii_variants(self, tmp_path):
        p2 = tmp_path / "a.pgm"
        p2.write_text("P2\n# comment line\n3 2\n255\n0 128 255\n64 32 16\n")
        img = image_io.read_pnm(p2)
        assert img.shape == (2, 3)
        assert img[0, 1] == pytest.approx(128 / 255)
        p3 = tmp_path / "a.ppm"
        p3.write_text("P3\n1 1\n255\n255 0 128\n")
        rgb = image_io.read_pnm(p3)
        assert rgb.shape == (1, 1, 3)
        np.testing.assert_allclose(rgb[0, 0], [1.0, 0.0, 128 / 255])

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"NOTPNM")
        with pytest.raises(ValueError):
            image_io.read_image(path)

    def test_truncated_header_names_file(self, tmp_path):
        path = tmp_path / "cut.pgm"
        for content in (b"P5\n", b"P2\n4 4\n", b"P6 3 2"):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=r"cut\.pgm: truncated PNM header"):
                image_io.read_image(path)

    def test_non_integer_header_names_file(self, tmp_path):
        path = tmp_path / "odd.pgm"
        for content in (b"P5\n4 x4\n255\n", b"P2\n2 1\n25.5\n0 1\n"):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=r"odd\.pgm: non-integer PNM header field"):
                image_io.read_image(path)

    def test_non_integer_sample_names_file(self, tmp_path):
        path = tmp_path / "odd.pgm"
        path.write_bytes(b"P2\n2 1\n255\n0 1.5\n")
        with pytest.raises(ValueError, match=r"odd\.pgm: non-integer PNM sample"):
            image_io.read_image(path)

    def test_empty_size_names_file(self, tmp_path):
        path = tmp_path / "flat.pgm"
        for size in (b"0 4", b"4 0", b"-2 4"):
            path.write_bytes(b"P5\n" + size + b"\n255\n")
            with pytest.raises(ValueError, match=r"flat\.pgm: PNM size .* is empty"):
                image_io.read_image(path)

    def test_maxval_outside_8_bit_range_names_file(self, tmp_path):
        path = tmp_path / "deep.pgm"
        for maxval in (0, 256, 65535):
            path.write_bytes(b"P5\n2 1\n%d\n" % maxval + bytes(4))
            with pytest.raises(ValueError, match=rf"deep\.pgm: PNM maxval {maxval} outside"):
                image_io.read_image(path)

    def test_sample_outside_maxval_names_file(self, tmp_path):
        path = tmp_path / "hot.pgm"
        for content in (b"P2 2 1 15 0 200", b"P2 2 1 255 -1 0",
                        b"P5\n2 1\n15\n" + bytes([0, 200])):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=r"hot\.pgm: PNM sample outside 0\.\.(15|255)"):
                image_io.read_image(path)

    def test_maxval_below_255_rescales(self, tmp_path):
        path = tmp_path / "low.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([0, 15]))
        np.testing.assert_allclose(image_io.read_image(path), [[0.0, 1.0]])


class TestPNMMutations:
    def test_each_mutant_reads_whole_or_names_the_file(self, tmp_path):
        rng = np.random.default_rng(20191005)
        binary = tmp_path / "source.pgm"
        write_pnm(binary, quantized(rng, (6, 5)))
        ascii_rgb = b"P3\n# comment\n2 2\n255\n255 0 128 1 2 3\n64 32 16 9 8 7\n"
        sources = [binary.read_bytes(), ascii_rgb]
        path = tmp_path / "mutant.pnm"
        read = rejected = 0
        for k in range(200):
            path.write_bytes(mutate_bytes(sources[k % 2], rng))
            try:
                img = image_io.read_pnm(path)
            except ValueError as err:
                assert str(path) in str(err)
                rejected += 1
                continue
            assert img.ndim in (2, 3) and img.size > 0
            assert np.all((img >= 0.0) & (img <= 1.0))
            read += 1
        assert read > 0 and rejected > 0


class TestPNG:
    def test_gray_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = quantized(rng, (15, 11))
        path = tmp_path / "img.png"
        image_io.write_png(path, img)
        np.testing.assert_allclose(image_io.read_png(path), img, atol=1e-9)

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = quantized(rng, (8, 13, 3))
        path = tmp_path / "img.png"
        image_io.write_png(path, img)
        np.testing.assert_allclose(image_io.read_png(path), img, atol=1e-9)

    def test_read_image_dispatch(self, tmp_path):
        rng = np.random.default_rng(4)
        img = quantized(rng, (6, 6))
        png = tmp_path / "x.png"
        image_io.write_png(png, img)
        pgm = tmp_path / "x.pgm"
        write_pnm(pgm, img)
        np.testing.assert_allclose(image_io.read_image(png), image_io.read_image(pgm),
                                   atol=1e-9)

    def test_decodes_externally_encoded_files(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(5)
        for mode, shape in [("L", (10, 14)), ("RGB", (11, 9, 3)), ("RGBA", (7, 8, 4))]:
            data = np.rint(rng.random(shape) * 255).astype(np.uint8)
            path = tmp_path / f"ext_{mode}.png"
            PIL.fromarray(data, mode=mode).save(path)
            out = image_io.read_png(path)
            if mode == "L":
                np.testing.assert_allclose(out, data / 255.0, atol=1e-9)
            else:
                np.testing.assert_allclose(out, data[:, :, :3] / 255.0, atol=1e-9)

    def test_survives_all_filter_types(self, tmp_path):
        # a gradient image makes encoders pick non-trivial per-row filters
        PIL = pytest.importorskip("PIL.Image")
        rows, cols = np.indices((32, 32))
        img = ((rows * 3 + cols * 7) % 256).astype(np.uint8)
        path = tmp_path / "gradient.png"
        PIL.fromarray(img, mode="L").save(path, optimize=True)
        np.testing.assert_allclose(image_io.read_png(path), img / 255.0, atol=1e-9)


    def test_corrupt_image_data_names_file(self, tmp_path):
        path = tmp_path / "broken.png"
        image_io.write_png(path, quantized(np.random.default_rng(5), (16, 16)))
        path.write_bytes(corrupt_idat(path.read_bytes()))
        with pytest.raises(ValueError, match=r"broken\.png: corrupt PNG image data"):
            image_io.read_image(path)

    def test_truncated_chunk_names_file(self, tmp_path):
        path = tmp_path / "cut.png"
        image_io.write_png(path, quantized(np.random.default_rng(6), (16, 16)))
        path.write_bytes(path.read_bytes()[:20])  # inside the IHDR payload
        with pytest.raises(ValueError, match=r"cut\.png: truncated or malformed PNG chunk"):
            image_io.read_image(path)

    def test_short_image_data_names_file(self, tmp_path):
        path = tmp_path / "short.png"
        image_io.write_png(path, quantized(np.random.default_rng(7), (16, 16)))
        blob = bytearray(path.read_bytes())
        height_at = blob.index(b"IHDR") + 8  # IHDR payload: width, then height
        blob[height_at : height_at + 4] = (32).to_bytes(4, "big")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"short\.png: PNG image data is truncated"):
            image_io.read_image(path)


def decoded(data):
    """What ``read_png`` returns for uint8 ``data`` (H, W, channels): alpha
    dropped, gray as (H, W)."""
    img = data.astype(float) / 255.0
    return img[:, :, 0] if data.shape[2] <= 2 else img[:, :, :3]


class TestPNGFilters:
    """Every row filter of every colour type against the reference encoder in
    conftest, compared exactly."""

    @pytest.mark.parametrize("color_type", sorted(PNG_CHANNELS))
    @pytest.mark.parametrize("kind", range(5))
    def test_each_filter_decodes_exactly(self, tmp_path, color_type, kind):
        rng = np.random.default_rng(10 * color_type + kind)
        channels = PNG_CHANNELS[color_type]
        path = tmp_path / "f.png"
        # full-range bytes wrap every predictor; eight levels make Paeth ties
        for top in (256, 8):
            data = rng.integers(0, top, size=(9, 13, channels), dtype=np.uint8)
            write_filtered_png(path, data, color_type, [kind])
            np.testing.assert_array_equal(image_io.read_png(path), decoded(data))

    @pytest.mark.parametrize("color_type", sorted(PNG_CHANNELS))
    def test_filter_changes_from_row_to_row(self, tmp_path, color_type):
        rng = np.random.default_rng(color_type)
        data = rng.integers(0, 256, size=(12, 7, PNG_CHANNELS[color_type]), dtype=np.uint8)
        path = tmp_path / "mixed.png"
        write_filtered_png(path, data, color_type, [4, 0, 3, 1, 2, 4, 4, 1, 3, 0, 2, 3])
        np.testing.assert_array_equal(image_io.read_png(path), decoded(data))

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)], ids=str)
    @pytest.mark.parametrize("color_type", [0, 6])
    def test_one_pixel_wide_or_high(self, tmp_path, shape, color_type):
        rng = np.random.default_rng(sum(shape) + color_type)
        data = rng.integers(0, 256, size=shape + (PNG_CHANNELS[color_type],),
                            dtype=np.uint8)
        path = tmp_path / "thin.png"
        for kind in range(5):
            write_filtered_png(path, data, color_type, [kind, (kind + 2) % 5])
            np.testing.assert_array_equal(image_io.read_png(path), decoded(data))

    def test_unknown_filter_names_file(self, tmp_path):
        path = tmp_path / "odd.png"
        write_filtered_png(path, np.zeros((3, 4, 1), dtype=np.uint8), 0, [0, 5])
        with pytest.raises(ValueError, match=r"odd\.png: unknown PNG filter 5"):
            image_io.read_image(path)

    @pytest.mark.parametrize("shape", [(8, 0), (0, 8)], ids=["0x8", "8x0"])
    def test_empty_size_names_file(self, tmp_path, shape):
        path = tmp_path / "flat.png"
        write_filtered_png(path, np.zeros(shape + (1,), dtype=np.uint8), 0, [0])
        height, width = shape
        with pytest.raises(ValueError,
                           match=rf"flat\.png: PNG size {width}x{height} is empty"):
            image_io.read_image(path)


class TestPNGMutations:
    def test_each_mutant_reads_whole_or_names_the_file(self, tmp_path):
        rng = np.random.default_rng(20191006)
        sources = []
        for shape in [(9, 7), (5, 6, 3)]:
            source = tmp_path / "source.png"
            image_io.write_png(source, quantized(rng, shape))
            sources.append(source.read_bytes())
        path = tmp_path / "mutant.png"
        read = rejected = 0
        for k in range(200):
            path.write_bytes(mutate_bytes(sources[k % 2], rng))
            try:
                img = image_io.read_png(path)
            except ValueError as err:
                assert str(path) in str(err)
                rejected += 1
                continue
            assert img.ndim in (2, 3) and img.size > 0
            assert np.all((img >= 0.0) & (img <= 1.0))
            read += 1
        assert read > 0 and rejected > 0


def corrupt_idat(blob: bytes) -> bytes:
    """Flip bytes inside the IDAT payload; the zlib stream no longer checks out."""
    start = blob.index(b"IDAT") + 4
    data = bytearray(blob)
    for k in range(start + 4, start + 12):
        data[k] ^= 0xFF
    return bytes(data)


class TestHelpers:
    def test_grayscale_weights(self, tmp_path):
        img = np.zeros((2, 2, 3))
        img[:, :, 1] = 1.0
        ppm, png = tmp_path / "green.ppm", tmp_path / "green.png"
        write_pnm(ppm, img)
        image_io.write_png(png, img)
        for path in (ppm, png):
            np.testing.assert_allclose(image_io.read_image(path), 0.587)

    def test_resize_identity(self):
        rng = np.random.default_rng(6)
        img = rng.random((9, 13))
        np.testing.assert_allclose(image_io.resize_bilinear(img, (9, 13)), img,
                                   atol=1e-12)

    def test_resize_constant_preserved(self):
        img = np.full((10, 10), 0.37)
        out = image_io.resize_bilinear(img, (16, 24))
        assert out.shape == (16, 24)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

